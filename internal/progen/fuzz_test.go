package progen

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/machine"
)

// FuzzPipeline lets the fuzzer steer both the program shape and the
// scheduler: whatever it picks, the full record→replay→detect→classify
// pipeline must succeed and hold its invariants, and the detector and the
// memory history must agree with their references (reference_test.go).
func FuzzPipeline(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(0))
	f.Add(int64(42), int64(7), uint8(255))
	f.Add(int64(-3), int64(0), uint8(0b10101))
	f.Fuzz(func(t *testing.T, genSeed, schedSeed int64, cfgBits uint8) {
		r := rand.New(rand.NewSource(genSeed))
		cfg := BitsConfig(cfgBits, r)
		src := Generate(r, cfg)
		prog, err := asm.Assemble("fz", src)
		if err != nil {
			t.Fatalf("generated program failed to assemble: %v", err)
		}
		policy := machine.SchedPolicy(uint8(schedSeed) % 3)
		res, err := core.Analyze(prog,
			machine.Config{Seed: schedSeed, Policy: policy, MaxSteps: 1 << 19},
			classify.Options{})
		if err != nil {
			t.Fatalf("pipeline failed: %v\n%s", err, src)
		}
		for _, rr := range res.Classification.Races {
			if rr.NSC+rr.SC+rr.RF != rr.Total {
				t.Fatal("inconsistent outcome counts")
			}
		}
		if _, err := checkDetect(res.Exec, res.Races); err != nil {
			t.Fatal(err)
		}
		if _, err := checkDetectVC(res.Exec); err != nil {
			t.Fatal(err)
		}
		if err := checkHistory(res.Exec); err != nil {
			t.Fatal(err)
		}
	})
}
