package racereplay

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workloads"
)

// renderSuiteRun renders a suite run exactly as the CLI does — summary,
// Table 1, every race report, and the quarantine section — so two runs
// compare byte-for-byte the way a user would see them.
func renderSuiteRun(run *workloads.SuiteRun) string {
	var b strings.Builder
	b.WriteString(report.Summary(run.Merged, report.SuiteTruth))
	b.WriteString("\n")
	b.WriteString(report.BuildTable1(run.Merged, report.SuiteTruth).Render())
	b.WriteString("\n")
	for _, r := range run.Merged.Races {
		b.WriteString(report.RaceReport(r, report.SuiteTruth))
		b.WriteString("\n")
	}
	for _, q := range run.Quarantined {
		b.WriteString(q.String())
		b.WriteString("\n")
	}
	return b.String()
}

// comparableMetrics strips the metrics that are allowed to differ
// between memo-on and memo-off runs: the cache's own classify.memo.*
// counters and gauge, and everything timing-dependent (wall-clock
// counters/histograms ending in _ns, the sched.* gauges). Every
// remaining metric — the vproc.* replay counters included, thanks to
// the hit-side counter replay — must match exactly.
func comparableMetrics(snap obs.Snapshot) (map[string]uint64, map[string]float64, map[string]obs.HistogramSnapshot) {
	counters := map[string]uint64{}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "classify.memo.") || strings.HasSuffix(name, "_ns") {
			continue
		}
		counters[name] = v
	}
	gauges := map[string]float64{}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "classify.memo.") || strings.HasPrefix(name, "sched.") {
			continue
		}
		gauges[name] = v
	}
	hists := map[string]obs.HistogramSnapshot{}
	for name, h := range snap.Histograms {
		if strings.HasSuffix(name, "_ns") {
			continue
		}
		hists[name] = h
	}
	return counters, gauges, hists
}

func diffMaps[V comparable](t *testing.T, kind string, on, off map[string]V) {
	t.Helper()
	for name, v := range on {
		if ov, ok := off[name]; !ok {
			t.Errorf("%s %q present memo-on, absent memo-off (value %v)", kind, name, v)
		} else if ov != v {
			t.Errorf("%s %q: memo-on %v, memo-off %v", kind, name, v, ov)
		}
	}
	for name, v := range off {
		if _, ok := on[name]; !ok {
			t.Errorf("%s %q present memo-off, absent memo-on (value %v)", kind, name, v)
		}
	}
}

// TestSuiteMemoEquivalence is the memo's equivalence guarantee over the
// full suite: with the replay cache on and off, the rendered suite
// output is byte-identical and every metric except classify.memo.* (and
// timing) matches, at one worker and at eight. Only an audited batch
// consults the memo, so the memo-on side is audited and the memo-off
// side is the same suite without an audit; the memo-on side's counters
// must also equal its audit's derived cache hits.
func TestSuiteMemoEquivalence(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			regOn := NewMetrics()
			on, err := RunSuite(SuiteOptions{Seeds: 2, Jobs: jobs, Registry: regOn, Audit: true})
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
				t.Errorf("rendered suite output differs memo-on vs memo-off:\n--- memo-on ---\n%s\n--- memo-off ---\n%s", gotOn, gotOff)
			}

			snapOn, snapOff := regOn.Snapshot(), regOff.Snapshot()
			cOn, gOn, hOn := comparableMetrics(snapOn)
			cOff, gOff, hOff := comparableMetrics(snapOff)
			diffMaps(t, "counter", cOn, cOff)
			diffMaps(t, "gauge", gOn, gOff)
			diffMaps(t, "histogram", hOn, hOff)

			// The equivalence must not be vacuous: the cache engaged (the
			// suite's recurring instances hit) and the off run never touched it.
			if snapOn.Counters["classify.memo.hits"] == 0 {
				t.Error("memo-on run recorded no cache hits — equivalence test is vacuous")
			}
			if snapOff.Counters["classify.memo.hits"]+snapOff.Counters["classify.memo.misses"] != 0 {
				t.Error("memo-off run touched the cache")
			}
			hits, misses := on.Audit.CacheHits()
			if got := snapOn.Counters["classify.memo.hits"]; got != uint64(hits) {
				t.Errorf("classify.memo.hits = %d, audit derives %d", got, hits)
			}
			if got := snapOn.Counters["classify.memo.misses"]; got != uint64(misses) {
				t.Errorf("classify.memo.misses = %d, audit derives %d", got, misses)
			}
		})
	}
}

// TestChaosCorpusMemoEquivalence extends the equivalence to degraded
// inputs: a seeded corruption sweep over a recorded log yields a batch
// of pristine, degraded-but-decodable, and structurally broken logs;
// analyzing the decodable ones must produce identical classifications
// and identical quarantine decisions with the cache on and off.
func TestChaosCorpusMemoEquivalence(t *testing.T) {
	scen, err := workloads.FindScenario("browse")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := scen.Program()
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := Record(prog, scen.Config(), OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var container bytes.Buffer
	if err := WriteLog(&container, log); err != nil {
		t.Fatal(err)
	}

	// The batch: the pristine log plus every corruption (over one full
	// rotation of the taxonomy) that still decodes — structured
	// corruptions like dup/drop-sequencer often do, and then fail (or
	// degrade) later in the pipeline, which is exactly the surface the
	// cache must not disturb.
	logs := []*Log{log}
	labels := []string{"pristine"}
	in := chaos.NewInjector(7)
	for trial := 0; trial < 32; trial++ {
		bad, kind := in.CorruptFile(container.Bytes(), trial)
		if cl, err := ReadLog(bytes.NewReader(bad)); err == nil {
			logs = append(logs, cl)
			labels = append(labels, fmt.Sprintf("%s#%d", kind, trial))
		}
	}
	if len(logs) < 2 {
		t.Skip("no corruption survived decoding; nothing beyond the pristine log to compare")
	}

	type outcome struct {
		cls        []*Classification
		quarantine []string
		hits       uint64
	}
	// The memo-on side passes one explicit memo, shared by the batch: an
	// un-audited batch wires none of its own.
	run := func(noMemo bool, jobs int) outcome {
		var memo *classify.Memo
		if !noMemo {
			memo = classify.NewMemo()
		}
		results, quarantined := core.AnalyzeLogsInstrumented(logs, func(i int) Options {
			return Options{Scenario: labels[i], Memo: memo}
		}, jobs, nil)
		out := outcome{cls: make([]*Classification, len(results))}
		if memo != nil {
			out.hits = memo.Hits()
		}
		for i, res := range results {
			if res != nil {
				out.cls[i] = res.Classification
			}
		}
		for _, q := range quarantined {
			out.quarantine = append(out.quarantine, q.String())
		}
		return out
	}

	ref := run(false, 1)
	if ref.hits == 0 {
		t.Error("memo-on run recorded no cache hits — equivalence test is vacuous")
	}
	for _, jobs := range []int{1, 8} {
		for _, noMemo := range []bool{false, true} {
			if jobs == 1 && !noMemo {
				continue // the reference itself
			}
			got := run(noMemo, jobs)
			if !reflect.DeepEqual(got.quarantine, ref.quarantine) {
				t.Errorf("jobs=%d noMemo=%v: quarantine %v, want %v", jobs, noMemo, got.quarantine, ref.quarantine)
			}
			if !reflect.DeepEqual(got.cls, ref.cls) {
				t.Errorf("jobs=%d noMemo=%v: classifications diverge from memo-on serial run", jobs, noMemo)
			}
		}
	}
}
