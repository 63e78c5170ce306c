package hb_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/progen"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// decodedTwin records prog at seed and decodes the v2 container, which
// does not serialize Sources: the twin's SiteOf falls back to labels.
func decodedTwin(t *testing.T, prog *isa.Program, cfg machine.Config) *trace.Log {
	t.Helper()
	log, _, err := record.Run(prog, cfg)
	if err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	twin, _, err := trace.Decode(trace.MarshalV2(log), trace.DecodeOptions{})
	if err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	return twin
}

// TestSiteOfAgreesAfterDecode pins race identity across the two SiteOf
// paths: `racer suite` names sites from the assembled program's Sources,
// `racer analyze-dir` from the decoded program's labels. For every PC of
// the 18 suite scenarios, browse, service and 300 generated programs,
// both must give the same string.
func TestSiteOfAgreesAfterDecode(t *testing.T) {
	scens := append(workloads.Scenarios(), workloads.BrowseScenario(), workloads.ServiceScenario())
	type run struct {
		prog *isa.Program
		cfg  machine.Config
	}
	var runs []run
	for _, s := range scens {
		prog, err := s.Program()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{prog, s.Config()})
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		src := progen.Generate(r, progen.BitsConfig(uint8(i), r))
		prog, err := asm.Assemble("gen", src)
		if err != nil {
			t.Fatalf("gen/%d: %v", i, err)
		}
		runs = append(runs, run{prog, machine.Config{Seed: int64(i + 1)}})
	}
	for i, rn := range runs {
		if len(rn.prog.Sources) != len(rn.prog.Code) {
			t.Fatalf("run %d: assembled program has %d sources for %d instructions", i, len(rn.prog.Sources), len(rn.prog.Code))
		}
		twin := decodedTwin(t, rn.prog, rn.cfg).Prog
		if len(twin.Sources) != 0 {
			t.Fatalf("run %d: decoded program kept its sources", i)
		}
		for pc := -1; pc <= len(rn.prog.Code); pc++ {
			if a, b := rn.prog.SiteOf(pc), twin.SiteOf(pc); a != b {
				t.Fatalf("run %d pc %d: assembled %q, decoded %q", i, pc, a, b)
			}
		}
	}
}

// TestSiteCostIndependentOfProgramSize checks that the offline engines
// format sites only for the PCs that race: on a freshly decoded
// execution, padding the program with 1,000 unreached labelled
// instructions must not change how many objects hb.Detect or
// predict.Run allocate. Every measured call gets its own decoded
// program, as analyze-dir and racer serve do. The counts are equal in a
// plain build; a race-instrumented build drops fmt's pooled printers at
// random, which moves either count by a few, so the budget is a small
// constant where formatting every PC would cost thousands.
func TestSiteCostIndependentOfProgramSize(t *testing.T) {
	var pad strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&pad, "pad%04d:\n  nop\n", i)
	}
	const runs = 10
	execs := func(src string) []*replay.Execution {
		prog, err := asm.Assemble("pad", src)
		if err != nil {
			t.Fatal(err)
		}
		var out []*replay.Execution
		for i := 0; i <= runs; i++ { // AllocsPerRun adds one warm-up call
			exec, err := replay.Run(decodedTwin(t, prog, machine.Config{Seed: 3}), replay.Options{})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, exec)
		}
		return out
	}
	allocs := func(execs []*replay.Execution, engine func(*replay.Execution) int) (float64, int) {
		next, races := 0, 0
		n := testing.AllocsPerRun(runs, func() {
			races = engine(execs[next])
			next++
		})
		return n, races
	}
	engines := map[string]func(*replay.Execution) int{
		"hb.Detect":   func(e *replay.Execution) int { return len(hb.Detect(e).Races) },
		"predict.Run": func(e *replay.Execution) int { return len(predict.Run(e, predict.Options{}).Candidates) },
	}
	for name, engine := range engines {
		plain, racesPlain := allocs(execs(racyCounterSrc), engine)
		padded, racesPadded := allocs(execs(racyCounterSrc+pad.String()), engine)
		if racesPlain == 0 || racesPlain != racesPadded {
			t.Fatalf("%s: %d races plain, %d padded; want the same nonzero count", name, racesPlain, racesPadded)
		}
		if padded > plain+5 {
			t.Errorf("%s allocates %.0f objects per decoded execution, %.0f with 1,000 unreached labels", name, plain, padded)
		}
	}
}
