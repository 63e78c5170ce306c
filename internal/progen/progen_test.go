// Fuzz-style property tests: every random program must assemble, run to
// completion without deadlock, record, replay identically, and survive
// the full detection+classification pipeline.
package progen

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vproc"
)

func TestGeneratedProgramsAssembleAndTerminate(t *testing.T) {
	for i := 0; i < 60; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		src := Generate(r, Random(r))
		prog, err := asm.Assemble("gen", src)
		if err != nil {
			t.Fatalf("case %d: assemble: %v\n%s", i, err, src)
		}
		m, err := machine.New(prog, machine.Config{Seed: int64(i), MaxSteps: 1 << 20})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		res := m.Run()
		if res.Deadlocked {
			t.Fatalf("case %d: deadlocked\n%s", i, src)
		}
		for _, th := range res.Threads {
			if th.State == machine.Faulted {
				t.Fatalf("case %d: thread %d faulted: %v\n%s", i, th.ID, th.Fault, src)
			}
			if !th.State.Terminated() {
				t.Fatalf("case %d: thread %d did not terminate (budget)\n%s", i, th.ID, src)
			}
		}
	}
}

// TestPipelinePropertyOverRandomPrograms is the repo's deepest fuzz check:
// for arbitrary program shapes, seeds, and scheduler policies, the whole
// pipeline must hold its invariants.
func TestPipelinePropertyOverRandomPrograms(t *testing.T) {
	policies := []machine.SchedPolicy{machine.PolicyRandom, machine.PolicyRoundRobin, machine.PolicyPCT}
	for i := 0; i < 40; i++ {
		r := rand.New(rand.NewSource(int64(1000 + i)))
		src := Generate(r, Random(r))
		prog, err := asm.Assemble("gen", src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		cfg := machine.Config{Seed: int64(i), Policy: policies[i%len(policies)], MaxSteps: 1 << 20}
		res, err := core.Analyze(prog, cfg, classify.Options{})
		if err != nil {
			t.Fatalf("case %d: pipeline: %v\n%s", i, err, src)
		}

		// 1. Replay matched the recording (core would have failed loudly
		//    otherwise); double-check outputs.
		for _, mt := range res.Machine.Threads {
			rt := res.Exec.Thread(mt.ID)
			if len(rt.Output) != len(mt.Output) {
				t.Fatalf("case %d: thread %d output diverged", i, mt.ID)
			}
		}

		// 2. Detector sanity: no race within a single thread, no race on
		//    atomic accesses, every instance in overlapping regions.
		for _, race := range res.Races.Races {
			for _, inst := range race.Instances {
				if inst.RegionA.TID == inst.RegionB.TID {
					t.Fatalf("case %d: same-thread race %v", i, race.Sites)
				}
				if !inst.RegionA.Overlaps(inst.RegionB) {
					t.Fatalf("case %d: non-overlapping regions raced", i)
				}
				if inst.First.Atomic || inst.Second.Atomic {
					t.Fatalf("case %d: atomic access in a data race", i)
				}
				if !inst.First.IsWrite && !inst.Second.IsWrite {
					t.Fatalf("case %d: read-read pair reported", i)
				}
			}
		}

		// 3. The vector-clock detector finds at least as many instances.
		vc, err := hb.DetectVC(res.Exec, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if vc.TotalInstances < res.Races.TotalInstances {
			t.Fatalf("case %d: vc (%d) < interval (%d)", i, vc.TotalInstances, res.Races.TotalInstances)
		}

		// 4. Classification is total and consistent: every instance got an
		//    outcome, and the verdict matches the counts.
		for _, rr := range res.Classification.Races {
			if rr.NSC+rr.SC+rr.RF != rr.Total {
				t.Fatalf("case %d: outcome counts do not add up", i)
			}
			wantBenign := rr.SC == 0 && rr.RF == 0
			if (rr.Verdict == classify.PotentiallyBenign) != wantBenign {
				t.Fatalf("case %d: verdict inconsistent with counts", i)
			}
		}

		// 5. Classification is deterministic.
		again := classify.Run(res.Exec, res.Races, classify.Options{})
		if len(again.Races) != len(res.Classification.Races) {
			t.Fatalf("case %d: classification not deterministic", i)
		}
		for j := range again.Races {
			a, b := again.Races[j], res.Classification.Races[j]
			if a.Sites != b.Sites || a.NSC != b.NSC || a.SC != b.SC || a.RF != b.RF {
				t.Fatalf("case %d: race %v classified differently on re-run", i, a.Sites)
			}
		}
	}
}

// TestVprocDualOrderIsOrderSymmetric: swapping which access is "first" in
// the pair must not change the verdict — both orders are replayed either
// way, so the outcome is a property of the pair, not its presentation.
func TestVprocDualOrderIsOrderSymmetric(t *testing.T) {
	for i := 0; i < 25; i++ {
		r := rand.New(rand.NewSource(int64(2000 + i)))
		src := Generate(r, Random(r))
		prog, err := asm.Assemble("gen", src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Analyze(prog, machine.Config{Seed: int64(i)}, classify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, race := range res.Races.Races {
			for _, inst := range race.Instances {
				fwd := vproc.Analyze(res.Exec, vproc.RacePair{
					RegionA: inst.RegionA, RegionB: inst.RegionB,
					IdxA: inst.First.Idx, IdxB: inst.Second.Idx,
					PCA: inst.First.PC, PCB: inst.Second.PC, Addr: inst.Addr,
				}, vproc.Options{}, nil)
				rev := vproc.Analyze(res.Exec, vproc.RacePair{
					RegionA: inst.RegionB, RegionB: inst.RegionA,
					IdxA: inst.Second.Idx, IdxB: inst.First.Idx,
					PCA: inst.Second.PC, PCB: inst.First.PC, Addr: inst.Addr,
				}, vproc.Options{}, nil)
				// NoStateChange is symmetric; the harmful outcomes may
				// differ in kind (a failure in one presentation can be a
				// state change in the other) but not in verdict class.
				if (fwd.Outcome == vproc.NoStateChange) != (rev.Outcome == vproc.NoStateChange) {
					t.Errorf("case %d %v: fwd %v vs rev %v", i, race.Sites, fwd.Outcome, rev.Outcome)
				}
			}
		}
	}
}

// TestLogSerializationRoundTripsRandomPrograms covers the binary format
// against arbitrary log shapes.
func TestLogSerializationRoundTripsRandomPrograms(t *testing.T) {
	for i := 0; i < 30; i++ {
		r := rand.New(rand.NewSource(int64(3000 + i)))
		src := Generate(r, Random(r))
		prog, err := asm.Assemble("gen", src)
		if err != nil {
			t.Fatal(err)
		}
		log, _, err := record.Run(prog, machine.Config{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		log2, _, err := trace.Decode(trace.MarshalV2(log), trace.DecodeOptions{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		exec1, err := replay.Run(log, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		exec2, err := replay.Run(log2, replay.Options{})
		if err != nil {
			t.Fatalf("case %d: replay of deserialized log: %v", i, err)
		}
		for _, th := range exec1.Threads {
			other := exec2.Thread(th.TID)
			if th.FinalCpu.Regs != other.FinalCpu.Regs {
				t.Fatalf("case %d: thread %d state changed through serialization", i, th.TID)
			}
		}
	}
}
