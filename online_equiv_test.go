package racereplay

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// onlineComparableMetrics strips the metrics that are allowed to differ
// between online-on and online-off runs: the online detector's own
// detect.online.* counters and gauge (they only exist when the detector
// is wired in), the memo's classify.memo.bytes gauge, and everything
// timing-dependent. Every remaining metric — the offline detect.*,
// classify.* (the memo's hit and miss counters included: each
// fingerprint replays once), record.* and vproc.* families — must match
// exactly, because the online observer is passive and the offline pass
// still runs in full whenever a scenario races.
func onlineComparableMetrics(snap obs.Snapshot) (map[string]uint64, map[string]float64, map[string]obs.HistogramSnapshot) {
	skip := func(name string) bool {
		return strings.HasPrefix(name, "detect.online.") ||
			strings.HasPrefix(name, "record.keyframes.") ||
			strings.HasSuffix(name, "_ns")
	}
	counters := map[string]uint64{}
	for name, v := range snap.Counters {
		if skip(name) {
			continue
		}
		counters[name] = v
	}
	gauges := map[string]float64{}
	for name, v := range snap.Gauges {
		if skip(name) || strings.HasPrefix(name, "sched.") || name == "classify.memo.bytes" {
			continue
		}
		gauges[name] = v
	}
	hists := map[string]obs.HistogramSnapshot{}
	for name, h := range snap.Histograms {
		if skip(name) {
			continue
		}
		hists[name] = h
	}
	return counters, gauges, hists
}

// TestSuiteOnlineEquivalence is the tentpole's equivalence guarantee over
// the full suite: with the online detector fused into recording and
// without it, the rendered suite output is byte-identical and every
// metric except the detector's own detect.online.* family (and timing)
// matches, at one worker and at eight. Every suite scenario races, so
// this also pins that the online verdict never diverts a racy execution
// away from the offline pass.
func TestSuiteOnlineEquivalence(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			regOn := NewMetrics()
			on, err := RunSuite(SuiteOptions{Seeds: 2, Jobs: jobs, Registry: regOn, Online: true})
			if err != nil {
				t.Fatal(err)
			}
			regOff := NewMetrics()
			off, err := RunSuite(SuiteOptions{Seeds: 2, Jobs: jobs, Registry: regOff})
			if err != nil {
				t.Fatal(err)
			}

			gotOn, gotOff := renderSuiteRun(on), renderSuiteRun(off)
			if gotOn != gotOff {
				t.Errorf("rendered suite output differs online-on vs online-off:\n--- online-on ---\n%s\n--- online-off ---\n%s", gotOn, gotOff)
			}

			snapOn, snapOff := regOn.Snapshot(), regOff.Snapshot()
			cOn, gOn, hOn := onlineComparableMetrics(snapOn)
			cOff, gOff, hOff := onlineComparableMetrics(snapOff)
			diffMaps(t, "counter", cOn, cOff)
			diffMaps(t, "gauge", gOn, gOff)
			diffMaps(t, "histogram", hOn, hOff)

			// The equivalence must not be vacuous: the online detector ran on
			// every recording and flagged races, while the off run never
			// touched it. Every suite scenario races, so no execution may
			// have taken the race-free fast path.
			if got := snapOn.Counters["detect.online.executions"]; got == 0 {
				t.Error("online-on run recorded no online executions — equivalence test is vacuous")
			}
			if snapOn.Counters["detect.online.races"] == 0 {
				t.Error("online detector flagged no races across a suite where every scenario races")
			}
			if got := snapOn.Counters["detect.online.fastpath"]; got != 0 {
				t.Errorf("fast path engaged %d times on an all-racy suite", got)
			}
			for name, v := range snapOff.Counters {
				if strings.HasPrefix(name, "detect.online.") && v != 0 {
					t.Errorf("online-off run touched the online detector: %s = %d", name, v)
				}
			}
		})
	}
}

// TestChaosCorpusOnlineFastPathEquivalence extends the equivalence to the
// race-free fast path and degraded inputs. A race-free scenario recorded
// with the online detector carries an in-memory race-free annotation, so
// AnalyzeLogs skips the offline decode+HB pass for it; the same log
// round-tripped through the wire format loses the annotation (MarshalV2
// never serializes it) and takes the full offline pass. Batched with a
// racy log and a seeded corruption sweep over it, both routes must yield
// identical race sets, classifications, and quarantine decisions at one
// worker and at eight.
func TestChaosCorpusOnlineFastPathEquivalence(t *testing.T) {
	clean, err := workloads.FindScenario("service")
	if err != nil {
		t.Fatal(err)
	}
	cleanProg, err := clean.Program()
	if err != nil {
		t.Fatal(err)
	}
	fastLog, orep, err := Record(cleanProg, clean.Config(), OnlineConfig{Detect: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !orep.RaceFree {
		t.Fatalf("service scenario raced online (%d pairs); fast-path test needs a race-free workload", len(orep.Races))
	}
	if fastLog.Online == nil || !fastLog.Online.RaceFree {
		t.Fatal("online recording of a race-free run carries no race-free annotation")
	}
	// Round-trip the same log: byte-identical trace, no annotation —
	// the offline control for the fast path.
	var cleanWire bytes.Buffer
	if err := WriteLog(&cleanWire, fastLog); err != nil {
		t.Fatal(err)
	}
	slowLog, err := ReadLog(bytes.NewReader(cleanWire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if slowLog.Online != nil {
		t.Fatal("wire format leaked the in-memory online annotation")
	}

	racy, err := workloads.FindScenario("browse")
	if err != nil {
		t.Fatal(err)
	}
	racyProg, err := racy.Program()
	if err != nil {
		t.Fatal(err)
	}
	racyLog, _, err := Record(racyProg, racy.Config(), OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var racyWire bytes.Buffer
	if err := WriteLog(&racyWire, racyLog); err != nil {
		t.Fatal(err)
	}

	// The shared tail of both batches: the racy log plus every corruption
	// of it that still decodes (structured corruptions often do, then
	// fail or degrade later — surface the fast path must not disturb).
	tail := []*Log{racyLog}
	labels := []string{"browse"}
	in := chaos.NewInjector(11)
	for trial := 0; trial < 32; trial++ {
		bad, kind := in.CorruptFile(racyWire.Bytes(), trial)
		if cl, err := ReadLog(bytes.NewReader(bad)); err == nil {
			tail = append(tail, cl)
			labels = append(labels, fmt.Sprintf("%s#%d", kind, trial))
		}
	}

	type outcome struct {
		sites      [][]string
		cls        []*Classification
		quarantine []string
	}
	run := func(head *Log, jobs int, reg *Metrics) outcome {
		logs := append([]*Log{head}, tail...)
		results, quarantined := AnalyzeLogs(logs, func(i int) Options {
			if i == 0 {
				return Options{Scenario: "service"}
			}
			return Options{Scenario: labels[i-1]}
		}, jobs, reg)
		out := outcome{}
		for _, res := range results {
			if res == nil {
				out.sites = append(out.sites, nil)
				out.cls = append(out.cls, nil)
				continue
			}
			var sites []string
			for _, r := range res.Races.Races {
				sites = append(sites, r.Sites.A+" <-> "+r.Sites.B)
			}
			out.sites = append(out.sites, sites)
			out.cls = append(out.cls, res.Classification)
		}
		for _, q := range quarantined {
			out.quarantine = append(out.quarantine, q.String())
		}
		return out
	}

	regRef := NewMetrics()
	ref := run(slowLog, 1, regRef)
	if n := regRef.Snapshot().Counters["detect.online.fastpath"]; n != 0 {
		t.Fatalf("offline control took the fast path %d times", n)
	}
	for _, jobs := range []int{1, 8} {
		for _, fast := range []bool{false, true} {
			if jobs == 1 && !fast {
				continue // the reference itself
			}
			head := slowLog
			if fast {
				head = fastLog
			}
			reg := NewMetrics()
			got := run(head, jobs, reg)
			fp := reg.Snapshot().Counters["detect.online.fastpath"]
			if fast && fp != 1 {
				t.Errorf("jobs=%d: fast path engaged %d times, want exactly 1", jobs, fp)
			}
			if !fast && fp != 0 {
				t.Errorf("jobs=%d: offline route took the fast path %d times", jobs, fp)
			}
			if !reflect.DeepEqual(got.quarantine, ref.quarantine) {
				t.Errorf("jobs=%d fast=%v: quarantine %v, want %v", jobs, fast, got.quarantine, ref.quarantine)
			}
			if !reflect.DeepEqual(got.sites, ref.sites) {
				t.Errorf("jobs=%d fast=%v: race site sets diverge from offline serial run:\n got %v\nwant %v", jobs, fast, got.sites, ref.sites)
			}
			if !reflect.DeepEqual(got.cls, ref.cls) {
				t.Errorf("jobs=%d fast=%v: classifications diverge from offline serial run", jobs, fast)
			}
		}
	}
}
