package predict_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/progen"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/workloads"
)

// engineRun is one recorded execution the offline engines are pinned on.
type engineRun struct {
	label string
	prog  *isa.Program
	cfg   machine.Config
}

// engineRuns lists the pinned executions: the handwritten shapes at
// seeds 1–20, 64 generated programs at seeds 1–3, the 18 suite
// scenarios at the two seeds `racer suite -seeds 2` uses, and browse
// and service at seed 1.
func engineRuns(t *testing.T) []engineRun {
	t.Helper()
	var runs []engineRun
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog, err := asm.Assemble("predict", shapes[name])
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 20; seed++ {
			runs = append(runs, engineRun{fmt.Sprintf("shape/%s/%d", name, seed), prog, machine.Config{Seed: seed}})
		}
	}
	r := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 64; trial++ {
		src := progen.Generate(r, progen.BitsConfig(uint8(trial*4+1), r))
		prog, err := asm.Assemble("gen", src)
		if err != nil {
			t.Fatalf("gen/%02d: %v", trial, err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			runs = append(runs, engineRun{fmt.Sprintf("gen/%02d/%d", trial, seed), prog, machine.Config{Seed: seed}})
		}
	}
	for i, s := range workloads.SuiteScenarios(2) {
		prog, err := s.Program()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, engineRun{fmt.Sprintf("suite/%s/%d", s.Name, i%2+1), prog, s.Config()})
	}
	for _, s := range []workloads.Scenario{workloads.BrowseScenario(), workloads.ServiceScenario()} {
		prog, err := s.Program()
		if err != nil {
			t.Fatal(err)
		}
		cfg := s.Config()
		cfg.Seed = 1
		runs = append(runs, engineRun{s.Name + "/1", prog, cfg})
	}
	return runs
}

// replayRun records and replays run.
func replayRun(t *testing.T, run engineRun) *replay.Execution {
	t.Helper()
	log, _, err := record.Run(run.prog, run.cfg)
	if err != nil {
		t.Fatalf("%s: %v", run.label, err)
	}
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatalf("%s: %v", run.label, err)
	}
	return exec
}

// engineDigests returns a digest of the canonical dump of each offline
// engine's output on run, keyed by engine.
func engineDigests(t *testing.T, run engineRun) map[string]string {
	t.Helper()
	exec := replayRun(t, run)
	out := map[string]string{}
	reg := obs.NewRegistry()
	out["detect"] = digest(dumpHB(hb.DetectInstrumented(exec, reg), reg))
	reg = obs.NewRegistry()
	if vc, err := hb.DetectVC(exec, reg); err != nil {
		out["vc"] = digest("error: " + err.Error())
	} else {
		out["vc"] = digest(dumpHB(vc, reg))
	}
	out["predict"] = digest(dumpPredict(predict.Run(exec, predict.Options{})))
	out["predict-w4"] = digest(dumpPredict(predict.Run(exec, predict.Options{Window: 4})))
	return out
}

var engineNames = []string{"detect", "vc", "predict", "predict-w4"}

func digest(dump string) string {
	sum := sha256.Sum256([]byte(dump))
	return hex.EncodeToString(sum[:16])
}

func dumpInstance(b *strings.Builder, in hb.Instance) {
	for _, a := range []replay.Access{in.First, in.Second} {
		fmt.Fprintf(b, " t%d i%d pc%d a%#x v%d w%v at%v", a.TID, a.Idx, a.PC, a.Addr, a.Val, a.IsWrite, a.Atomic)
	}
	fmt.Fprintf(b, " regions %d %d addr %#x\n", in.RegionA.Global, in.RegionB.Global, in.Addr)
}

// dumpHB renders a detector report and its detect.* counters.
func dumpHB(rep *hb.Report, reg *obs.Registry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "races %d instances %d\n", len(rep.Races), rep.TotalInstances)
	for _, race := range rep.Races {
		fmt.Fprintf(&b, "race %s\n", race.Sites)
		for _, in := range race.Instances {
			dumpInstance(&b, in)
		}
	}
	counters := reg.Snapshot().Counters
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s %d\n", name, counters[name])
	}
	return b.String()
}

// dumpPredict renders a prediction report: every candidate with its
// witness, the block counts and the rejection tallies.
func dumpPredict(rep *predict.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "window %d blocks %d screened %d rejected %+v\n",
		rep.Window, rep.Blocks, rep.PairsScreened, rep.Rejected)
	for _, c := range rep.Candidates {
		fmt.Fprintf(&b, "cand %s observed %v witness %s %v\n", c.Sites, c.Observed, c.Witness.Kind, c.Witness.Regions)
		dumpInstance(&b, c.Instance)
	}
	return b.String()
}

// TestEnginesPinned pins hb.Detect, hb.DetectVC and predict.Run (at the
// default window and at window 4) on every engineRuns execution against
// testdata/engines.txt: any change to an instance, a witness, a
// detect.* counter, the block counts or the rejection tallies fails.
func TestEnginesPinned(t *testing.T) {
	want := readEnginePins(t)
	runs := engineRuns(t)
	if len(runs)*len(engineNames) != len(want) {
		t.Fatalf("%d rows computed, %d pinned", len(runs)*len(engineNames), len(want))
	}
	for _, run := range runs {
		got := engineDigests(t, run)
		for _, engine := range engineNames {
			key := run.label + " " + engine
			if got[engine] != want[key] {
				t.Errorf("%s: got %s, pinned %s", key, got[engine], want[key])
			}
		}
	}
}

// readEnginePins parses testdata/engines.txt into "label engine" ->
// digest.
func readEnginePins(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "engines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pins := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed pin %q", line)
		}
		pins[fields[0]+" "+fields[1]] = fields[2]
	}
	return pins
}

// TestEpochTestMatchesVectorClocks: on every cross-thread region pair of
// the shapes and the generated programs, under both edge sets,
// hb.Concurrent's constant-time epoch test must equal the full
// vector-clock comparison.
func TestEpochTestMatchesVectorClocks(t *testing.T) {
	concurrent, ordered := 0, 0
	for _, run := range engineRuns(t) {
		if !strings.HasPrefix(run.label, "shape/") && !strings.HasPrefix(run.label, "gen/") {
			continue
		}
		exec := replayRun(t, run)
		for _, edges := range []hb.Edges{hb.Strict, hb.Weak} {
			clocks, _ := hb.RegionClocks(exec, edges)
			for i, a := range exec.Regions {
				for _, b := range exec.Regions[i+1:] {
					if a.TID == b.TID {
						continue
					}
					want := clocks[a.Global].Concurrent(clocks[b.Global])
					if got := hb.Concurrent(clocks, a, b); got != want {
						t.Fatalf("%s edges %d: regions %d %v and %d %v: epoch test %v, vector clocks %v",
							run.label, edges, a.Global, clocks[a.Global], b.Global, clocks[b.Global], got, want)
					}
					if want {
						concurrent++
					} else {
						ordered++
					}
				}
			}
		}
	}
	if concurrent == 0 || ordered == 0 {
		t.Fatalf("vacuous: %d concurrent, %d ordered region pairs", concurrent, ordered)
	}
	t.Logf("%d concurrent, %d ordered region pairs", concurrent, ordered)
}

// TestOverlapHorizonExact: on every engineRuns execution, hb.Search with
// the overlap predicate emits the same instances at reach 0 as at a
// reach that visits every pair, with equal Passed, Blocks and
// BlockPairs; and at reach 0 every visited pair overlaps (Visited ==
// Passed), so the horizon is tight as well as exact.
func TestOverlapHorizonExact(t *testing.T) {
	type emitted struct {
		sites hb.SitePair
		a, b  int
		addr  uint64
	}
	search := func(exec *replay.Execution, reach int) ([]emitted, hb.SearchStats) {
		var out []emitted
		st := hb.Search(exec, reach, func(a, b *replay.Region, _ uint64) bool { return a.Overlaps(b) },
			func(sites hb.SitePair, in hb.Instance) {
				out = append(out, emitted{sites, in.RegionA.Global, in.RegionB.Global, in.Addr})
			})
		return out, st
	}
	pruned, visited := 0, 0
	for _, run := range engineRuns(t) {
		exec := replayRun(t, run)
		near, ns := search(exec, 0)
		full, fs := search(exec, len(exec.Regions))
		if !reflect.DeepEqual(near, full) {
			t.Fatalf("%s: reach 0 emits %d instances, full reach %d", run.label, len(near), len(full))
		}
		if ns.Passed != fs.Passed || ns.Blocks != fs.Blocks || ns.BlockPairs != fs.BlockPairs || ns.RegionPairs != fs.RegionPairs {
			t.Fatalf("%s: reach 0 stats %+v, full reach %+v", run.label, ns, fs)
		}
		if ns.Visited != ns.Passed {
			t.Fatalf("%s: reach 0 visits %d pairs but only %d overlap", run.label, ns.Visited, ns.Passed)
		}
		if fs.Visited != fs.RegionPairs {
			t.Fatalf("%s: full reach visits %d of %d pairs", run.label, fs.Visited, fs.RegionPairs)
		}
		pruned += fs.Visited - ns.Visited
		visited += ns.Visited
	}
	if pruned == 0 || visited == 0 {
		t.Fatalf("vacuous: %d pairs visited, %d pruned", visited, pruned)
	}
	t.Logf("%d pairs visited at reach 0, %d pruned", visited, pruned)
}
