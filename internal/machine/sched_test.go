package machine

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

const lockedCounterSrc = `
.entry main
.word mu 0
.word n 0
worker:
  ldi r2, 50
wloop:
  ldi r3, mu
  lock [r3+0]
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  unlock [r3+0]
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  ldi r2, n
  ld r1, [r2+0]
  sys print
  halt
`

const racyFlagSrc = `
.entry main
.word n 0
worker:
  ldi r2, 100
wloop:
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  ldi r2, n
  ld r1, [r2+0]
  sys print
  halt
`

func TestAllPoliciesRunLockedProgramCorrectly(t *testing.T) {
	for _, policy := range []SchedPolicy{PolicyRandom, PolicyRoundRobin, PolicyPCT} {
		for _, seed := range []int64{1, 7} {
			_, res := run(t, lockedCounterSrc, Config{Seed: seed, Policy: policy})
			t0 := res.Threads[0]
			if t0.State != Halted {
				t.Fatalf("%v seed %d: main %v (fault %v)", policy, seed, t0.State, t0.Fault)
			}
			if len(t0.Output) != 1 || t0.Output[0] != 100 {
				t.Errorf("%v seed %d: output = %v, want [100]", policy, seed, t0.Output)
			}
			if res.Deadlocked {
				t.Errorf("%v seed %d: deadlock", policy, seed)
			}
		}
	}
}

func TestPoliciesAreDeterministicPerSeed(t *testing.T) {
	for _, policy := range []SchedPolicy{PolicyRandom, PolicyRoundRobin, PolicyPCT} {
		_, a := run(t, racyFlagSrc, Config{Seed: 3, Policy: policy})
		_, b := run(t, racyFlagSrc, Config{Seed: 3, Policy: policy})
		if a.TotalSteps != b.TotalSteps {
			t.Errorf("%v: steps differ %d vs %d", policy, a.TotalSteps, b.TotalSteps)
		}
		if a.Threads[0].Output[0] != b.Threads[0].Output[0] {
			t.Errorf("%v: outputs differ", policy)
		}
	}
}

func TestPCTDemotionChangesSchedule(t *testing.T) {
	// Different seeds must produce different PCT schedules (priorities and
	// change points differ). The change points fall within the first
	// 50,000 instructions, so the workers loop past them: 60,000
	// instructions each.
	src := strings.Replace(racyFlagSrc, "ldi r2, 100\n", "ldi r2, 10000\n", 1)
	outputs := map[int64]bool{}
	for seed := int64(1); seed <= 12; seed++ {
		_, res := run(t, src, Config{Seed: seed, Policy: PolicyPCT})
		if res.TotalSteps < pctHorizon {
			t.Fatalf("seed %d: %d steps, want more than the %d-instruction horizon", seed, res.TotalSteps, pctHorizon)
		}
		outputs[res.Threads[0].Output[0]] = true
	}
	if len(outputs) < 2 {
		t.Error("PCT schedules identical across seeds")
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []SchedPolicy{PolicyRandom, PolicyRoundRobin, PolicyPCT} {
		if s := p.String(); s == "" || s[0] == 'p' && s[1] == 'o' && s[2] == 'l' && s[3] == 'i' {
			t.Errorf("policy %d unnamed: %q", p, s)
		}
	}
	if SchedPolicy(9).String() != "policy(9)" {
		t.Error("unknown policy should render numerically")
	}
}

func TestPCTRecordingsReplayable(t *testing.T) {
	// PCT interleavings must be recordable/replayable like any other:
	// the replay machinery is schedule-agnostic. (Full determinism checks
	// live in the replay package; here we just confirm recording works.)
	prog := mustProg(t, racyFlagSrc)
	for seed := int64(1); seed <= 4; seed++ {
		m, err := New(prog, Config{Seed: seed, Policy: PolicyPCT})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if res.Deadlocked {
			t.Fatalf("seed %d: deadlock under PCT", seed)
		}
	}
}

func mustProg(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("sched", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestManyThreadsStress(t *testing.T) {
	// 40 workers hammer one locked counter: exercises the scheduler,
	// per-thread stack layout, and lock wake-ups at scale.
	src := `
.entry main
.word mu 0
.word n 0
.space tids 40
worker:
  ldi r2, 20
wloop:
  ldi r3, mu
  lock [r3+0]
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  unlock [r3+0]
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
main:
  ldi r10, tids
  ldi r9, 40
  ldi r11, 0
spawnloop:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  add r12, r10, r11
  st [r12+0], r1
  addi r11, r11, 1
  bne r11, r9, spawnloop
  ldi r11, 0
joinloop:
  add r12, r10, r11
  ld r1, [r12+0]
  sys join
  addi r11, r11, 1
  bne r11, r9, joinloop
  ldi r2, n
  ld r1, [r2+0]
  sys print
  halt
`
	for _, seed := range []int64{1, 9} {
		_, res := run(t, src, Config{Seed: seed})
		t0 := res.Threads[0]
		if t0.State != Halted {
			t.Fatalf("seed %d: main %v (fault %v)", seed, t0.State, t0.Fault)
		}
		if len(t0.Output) != 1 || t0.Output[0] != 800 {
			t.Errorf("seed %d: output = %v, want [800]", seed, t0.Output)
		}
		if len(res.Threads) != 41 {
			t.Errorf("seed %d: threads = %d, want 41", seed, len(res.Threads))
		}
	}
}

// TestSpawnLimit: a run holds at most 64 threads, thread 0 included.
// Thread 0 spawns 63 workers, which all run, and its next spawn faults
// with FaultBadSpawn.
func TestSpawnLimit(t *testing.T) {
	src := `
.entry main
worker:
  ldi r1, 0
  sys exit
main:
  ldi r9, 64
  ldi r11, 0
spawnloop:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  addi r11, r11, 1
  bne r11, r9, spawnloop
  halt
`
	_, res := run(t, src, Config{Seed: 1})
	if len(res.Threads) != 64 {
		t.Fatalf("threads = %d, want 64", len(res.Threads))
	}
	t0 := res.Threads[0]
	if t0.Fault == nil || t0.Fault.Kind != FaultBadSpawn {
		t.Fatalf("main: %v (fault %v), want a bad-spawn fault", t0.State, t0.Fault)
	}
	if got := t0.Cpu.Regs[11]; got != 63 {
		t.Errorf("main faulted after %d spawns, want 63", got)
	}
	for _, th := range res.Threads[1:] {
		if th.State != Exited {
			t.Errorf("worker %d: %v (fault %v), want exited", th.ID, th.State, th.Fault)
		}
	}
}
