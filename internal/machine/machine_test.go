package machine

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func run(t *testing.T, src string, cfg Config) (*Machine, *Result) {
	t.Helper()
	prog, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.Run()
}

func TestArithmeticAndPrint(t *testing.T) {
	src := `
main:
  ldi r1, 6
  ldi r2, 7
  mul r3, r1, r2
  mov r1, r3
  sys print
  ldi r1, 100
  addi r1, r1, -58
  sys print
  halt
`
	_, res := run(t, src, Config{Seed: 1})
	t0 := res.Threads[0]
	if t0.State != Halted {
		t.Fatalf("state = %v, fault = %v", t0.State, t0.Fault)
	}
	want := []int64{42, 42}
	if len(t0.Output) != 2 || t0.Output[0] != want[0] || t0.Output[1] != want[1] {
		t.Errorf("output = %v, want %v", t0.Output, want)
	}
}

func TestLoopAndMemory(t *testing.T) {
	src := `
.word sum 0
main:
  ldi r1, 10
  ldi r2, sum
loop:
  ld r3, [r2+0]
  add r3, r3, r1
  st [r2+0], r3
  addi r1, r1, -1
  bne r1, r0, loop
  ld r1, [r2+0]
  sys print
  halt
`
	_, res := run(t, src, Config{Seed: 1})
	t0 := res.Threads[0]
	if len(t0.Output) != 1 || t0.Output[0] != 55 {
		t.Errorf("output = %v, want [55]", t0.Output)
	}
}

func TestCallRet(t *testing.T) {
	src := `
.entry main
double:
  add r1, r1, r1
  ret
main:
  ldi r1, 21
  call double
  sys print
  halt
`
	_, res := run(t, src, Config{Seed: 1})
	t0 := res.Threads[0]
	if t0.State != Halted {
		t.Fatalf("state = %v, fault = %v", t0.State, t0.Fault)
	}
	if len(t0.Output) != 1 || t0.Output[0] != 42 {
		t.Errorf("output = %v, want [42]", t0.Output)
	}
}

func TestSpawnJoin(t *testing.T) {
	src := `
.entry main
.word cell 0
child:
  ; r1 = arg
  ldi r2, cell
  st [r2+0], r1
  ldi r1, 5
  sys exit
main:
  ldi r1, child
  ldi r2, 99
  sys spawn         ; r1 = child tid
  sys join          ; r1 = child exit code
  sys print
  ldi r2, cell
  ld r1, [r2+0]
  sys print
  halt
`
	_, res := run(t, src, Config{Seed: 7})
	t0 := res.Threads[0]
	if t0.State != Halted {
		t.Fatalf("state = %v, fault = %v", t0.State, t0.Fault)
	}
	if len(t0.Output) != 2 || t0.Output[0] != 5 || t0.Output[1] != 99 {
		t.Errorf("output = %v, want [5 99]", t0.Output)
	}
	if len(res.Threads) != 2 {
		t.Errorf("thread count = %d, want 2", len(res.Threads))
	}
}

func TestMutexProtectsCounter(t *testing.T) {
	// Two threads each add 1 to a shared counter 200 times under a lock;
	// with instruction-granular preemption the final value must be exact.
	src := `
.entry main
.word mu 0
.word n 0
worker:
  ldi r2, 200
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
	for _, seed := range []int64{1, 2, 3, 17, 99} {
		_, res := run(t, src, Config{Seed: seed})
		t0 := res.Threads[0]
		if t0.State != Halted {
			t.Fatalf("seed %d: state = %v, fault = %v", seed, t0.State, t0.Fault)
		}
		if len(t0.Output) != 1 || t0.Output[0] != 400 {
			t.Errorf("seed %d: output = %v, want [400]", seed, t0.Output)
		}
		if res.Deadlocked {
			t.Errorf("seed %d: unexpected deadlock", seed)
		}
	}
}

func TestRacyCounterLosesUpdates(t *testing.T) {
	// Same as above without the lock: some seed must lose updates,
	// demonstrating that the scheduler actually interleaves.
	src := `
.entry main
.word n 0
worker:
  ldi r2, 300
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
	lost := false
	for seed := int64(1); seed <= 10; seed++ {
		_, res := run(t, src, Config{Seed: seed})
		if out := res.Threads[0].Output; len(out) == 1 && out[0] < 600 {
			lost = true
			break
		}
	}
	if !lost {
		t.Error("no seed lost an update; scheduler may not be preempting")
	}
}

func TestDeterminism(t *testing.T) {
	src := `
.entry main
.word n 0
worker:
  ldi r2, 50
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
	_, res1 := run(t, src, Config{Seed: 42})
	_, res2 := run(t, src, Config{Seed: 42})
	if res1.TotalSteps != res2.TotalSteps {
		t.Errorf("steps differ: %d vs %d", res1.TotalSteps, res2.TotalSteps)
	}
	o1, o2 := res1.Threads[0].Output, res2.Threads[0].Output
	if len(o1) != 1 || len(o2) != 1 || o1[0] != o2[0] {
		t.Errorf("outputs differ: %v vs %v", o1, o2)
	}
}

func TestAllocFreeAndUseAfterFree(t *testing.T) {
	src := `
main:
  ldi r1, 4
  sys alloc
  mov r4, r1
  ldi r2, 7
  st [r4+2], r2
  ld r1, [r4+2]
  sys print
  mov r1, r4
  sys free
  ld r3, [r4+2]   ; use after free: faults
  halt
`
	_, res := run(t, src, Config{Seed: 1})
	t0 := res.Threads[0]
	if len(t0.Output) != 1 || t0.Output[0] != 7 {
		t.Errorf("output = %v, want [7]", t0.Output)
	}
	if t0.State != Faulted || t0.Fault == nil || t0.Fault.Kind != FaultUseAfterFree {
		t.Errorf("state = %v, fault = %v; want use-after-free", t0.State, t0.Fault)
	}
}

func TestDoubleFree(t *testing.T) {
	src := `
main:
  ldi r1, 2
  sys alloc
  mov r4, r1
  sys free
  mov r1, r4
  sys free
  halt
`
	_, res := run(t, src, Config{Seed: 1})
	t0 := res.Threads[0]
	if t0.State != Faulted || t0.Fault.Kind != FaultBadFree {
		t.Errorf("fault = %v, want bad-free", t0.Fault)
	}
}

func TestNullAccessFaults(t *testing.T) {
	src := "main:\n  ld r1, [r0+0]\n  halt\n"
	_, res := run(t, src, Config{Seed: 1})
	t0 := res.Threads[0]
	if t0.State != Faulted || t0.Fault.Kind != FaultNullAccess {
		t.Errorf("fault = %v, want null-access", t0.Fault)
	}
}

func TestDivZeroFaults(t *testing.T) {
	src := "main:\n  ldi r1, 5\n  div r2, r1, r0\n  halt\n"
	_, res := run(t, src, Config{Seed: 1})
	if f := res.Threads[0].Fault; f == nil || f.Kind != FaultDivZero {
		t.Errorf("fault = %v, want div-by-zero", f)
	}
}

func TestBadIndirectJumpFaults(t *testing.T) {
	src := "main:\n  ldi r1, 12345\n  jmpr r1\n  halt\n"
	_, res := run(t, src, Config{Seed: 1})
	if f := res.Threads[0].Fault; f == nil || f.Kind != FaultBadJump {
		t.Errorf("fault = %v, want bad-jump", f)
	}
}

func TestUnheldUnlockFaults(t *testing.T) {
	src := ".word mu 0\nmain:\n  ldi r1, mu\n  unlock [r1+0]\n  halt\n"
	_, res := run(t, src, Config{Seed: 1})
	if f := res.Threads[0].Fault; f == nil || f.Kind != FaultUnheldUnlock {
		t.Errorf("fault = %v, want unheld-unlock", f)
	}
}

func TestSelfJoinFaults(t *testing.T) {
	src := "main:\n  ldi r1, 0\n  sys join\n  halt\n"
	_, res := run(t, src, Config{Seed: 1})
	if f := res.Threads[0].Fault; f == nil || f.Kind != FaultBadJoin {
		t.Errorf("fault = %v, want bad-join", f)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Thread re-acquires a lock it already holds: non-reentrant, so the
	// machine must report deadlock.
	src := `
.word mu 0
main:
  ldi r1, mu
  lock [r1+0]
  lock [r1+0]
  halt
`
	_, res := run(t, src, Config{Seed: 1})
	if !res.Deadlocked {
		t.Error("self-deadlock not detected")
	}
}

func TestAtomicXaddIsAtomic(t *testing.T) {
	// The racy-counter test loses updates; with xadd it must not.
	src := `
.entry main
.word n 0
worker:
  ldi r2, 300
  ldi r3, 1
wloop:
  ldi r4, n
  xadd r5, [r4+0], r3
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
	for _, seed := range []int64{1, 5, 9} {
		_, res := run(t, src, Config{Seed: seed})
		if out := res.Threads[0].Output; len(out) != 1 || out[0] != 600 {
			t.Errorf("seed %d: output = %v, want [600]", seed, out)
		}
	}
}

func TestCasLoop(t *testing.T) {
	src := `
.entry main
.word n 0
worker:
  ldi r2, 100
wloop:
  ldi r4, n
retry:
  ld r5, [r4+0]      ; racy read of current value
  addi r6, r5, 1
  mov r7, r5
  cas r7, [r4+0], r6 ; succeed only if unchanged
  bne r7, r5, retry
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, worker
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  ldi r2, n
  ld r1, [r2+0]
  sys print
  halt
`
	_, res := run(t, src, Config{Seed: 3})
	if out := res.Threads[0].Output; len(out) != 1 || out[0] != 200 {
		t.Errorf("output = %v, want [200]", out)
	}
}

func TestSysRandDeterministicPerSeed(t *testing.T) {
	src := "main:\n  sys rand\n  sys print\n  halt\n"
	_, r1 := run(t, src, Config{Seed: 5})
	_, r2 := run(t, src, Config{Seed: 5})
	_, r3 := run(t, src, Config{Seed: 6})
	a, b, c := r1.Threads[0].Output[0], r2.Threads[0].Output[0], r3.Threads[0].Output[0]
	if a != b {
		t.Errorf("same seed, different rand: %d vs %d", a, b)
	}
	if a == c {
		t.Errorf("different seeds, same rand: %d", a)
	}
}

func TestStepBudgetStopsRunaway(t *testing.T) {
	src := "main:\n  jmp main\n"
	_, res := run(t, src, Config{Seed: 1, MaxSteps: 1000})
	if res.TotalSteps < 1000 {
		t.Errorf("steps = %d, want to hit the 1000 budget", res.TotalSteps)
	}
	if res.Threads[0].State.Terminated() {
		t.Error("runaway thread should still be runnable at budget exhaustion")
	}
}

// TestStepBudgetCeiling: no configuration runs past isa.MaxSteps, the
// budget a log must keep within to validate; an unset budget is the same.
func TestStepBudgetCeiling(t *testing.T) {
	for _, asked := range []uint64{0, isa.MaxSteps + 1, 1 << 40} {
		if got := (Config{MaxSteps: asked}).withDefaults().MaxSteps; got != isa.MaxSteps {
			t.Errorf("MaxSteps %d runs to %d, want the budget %d", asked, got, isa.MaxSteps)
		}
	}
}

func TestGettidAndTime(t *testing.T) {
	src := `
main:
  sys gettid
  sys print
  sys time
  sys print
  halt
`
	_, res := run(t, src, Config{Seed: 1})
	out := res.Threads[0].Output
	if len(out) != 2 || out[0] != 0 {
		t.Fatalf("output = %v", out)
	}
	if out[1] <= 0 {
		t.Errorf("virtual time = %d, want > 0", out[1])
	}
}

type countingObserver struct {
	loads, stores, seqs, started, ended, sysrets int
	atomicLoads                                  int
	seqTS                                        []uint64
}

func (c *countingObserver) ThreadStarted(t *Thread, ts uint64) { c.started++ }
func (c *countingObserver) ThreadEnded(t *Thread, ts uint64)   { c.ended++ }
func (c *countingObserver) Load(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	c.loads++
	if atomic {
		c.atomicLoads++
	}
}
func (c *countingObserver) Store(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	c.stores++
}
func (c *countingObserver) Sequencer(tid int, idx uint64, ts uint64, op isa.Op, sysNum int64) {
	c.seqs++
	c.seqTS = append(c.seqTS, ts)
}
func (c *countingObserver) SyscallRet(tid int, idx uint64, r0 uint64) { c.sysrets++ }

func TestObserverEvents(t *testing.T) {
	src := `
.word n 0
main:
  ldi r2, n
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  ldi r4, 1
  xadd r5, [r2+0], r4
  fence
  sys sysnop
  halt
`
	obs := &countingObserver{}
	_, res := run(t, src, Config{Seed: 1, Observer: obs})
	if res.Threads[0].State != Halted {
		t.Fatalf("fault: %v", res.Threads[0].Fault)
	}
	if obs.started != 1 || obs.ended != 1 {
		t.Errorf("started/ended = %d/%d, want 1/1", obs.started, obs.ended)
	}
	// ld + xadd-load
	if obs.loads != 2 || obs.atomicLoads != 1 {
		t.Errorf("loads = %d (atomic %d), want 2 (1)", obs.loads, obs.atomicLoads)
	}
	// st + xadd-store
	if obs.stores != 2 {
		t.Errorf("stores = %d, want 2", obs.stores)
	}
	// xadd, fence, sysnop
	if obs.seqs != 3 {
		t.Errorf("sequencers = %d, want 3", obs.seqs)
	}
	for i := 1; i < len(obs.seqTS); i++ {
		if obs.seqTS[i] <= obs.seqTS[i-1] {
			t.Errorf("sequencer timestamps not strictly increasing: %v", obs.seqTS)
		}
	}
	if obs.sysrets != 1 {
		t.Errorf("syscall returns = %d, want 1", obs.sysrets)
	}
}

func TestChildStartTSOrdersAfterParentWrites(t *testing.T) {
	src := `
.entry main
.word cell 0
child:
  ldi r1, 0
  sys exit
main:
  ldi r2, cell
  ldi r3, 9
  st [r2+0], r3
  ldi r1, child
  ldi r2, 0
  sys spawn
  sys join
  halt
`
	prog, err := asm.Assemble("ts", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	child := m.threads[1]
	if child.StartTS == 0 {
		t.Error("child StartTS should be the parent's spawn sequencer, not 0")
	}
	if child.EndTS <= child.StartTS {
		t.Errorf("child EndTS %d should exceed StartTS %d", child.EndTS, child.StartTS)
	}
}

func TestOOMFaults(t *testing.T) {
	// One word more than the 0xF0000 between isa.HeapBase and the
	// stacks at isa.StackBase.
	src := `
main:
  ldi r1, 983041
  sys alloc
  halt
`
	_, res := run(t, src, Config{Seed: 1})
	if f := res.Threads[0].Fault; f == nil || f.Kind != FaultOOM {
		t.Errorf("fault = %v, want out-of-memory", f)
	}
}

func TestMemoryBlocksTable(t *testing.T) {
	m := NewMemory(0)
	a, f := m.Alloc(4, 0)
	if f != nil {
		t.Fatal(f)
	}
	b, _ := m.Alloc(2, 0)
	if got := m.liveBlocks(); len(got) != 2 || got[0].Base != a || got[1].Base != b {
		t.Errorf("blocks = %v", got)
	}
	if err := m.Free(a, 0); err != nil {
		t.Fatal(err)
	}
	if !m.poisonedAt(a) || !m.poisonedAt(a+3) {
		t.Error("freed words should be poisoned")
	}
	if m.poisonedAt(b) {
		t.Error("live block should not be poisoned")
	}
	if got := m.liveBlocks(); len(got) != 1 || got[0].Base != b {
		t.Errorf("blocks after free = %v", got)
	}
}

func TestEmptyProgramRejected(t *testing.T) {
	p := isa.NewProgram("empty")
	if _, err := New(p, Config{}); err == nil {
		t.Error("empty program accepted")
	}
}

// TestNativeStepDoesNotAllocate guards the per-instruction path: a native
// run allocates a fixed number of objects (the machine, its memory pages,
// the thread table), not one per retired instruction, as boxing a fresh
// Env value for every Step would.
func TestNativeStepDoesNotAllocate(t *testing.T) {
	src := `
.entry main
.word g 0
.word mu 0
worker:
  ldi r2, g
  ldi r4, mu
  ldi r5, 10000
wloop:
  lock [r4+0]
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  unlock [r4+0]
  addi r5, r5, -1
  bne r5, r0, wloop
  sys exit
main:
  ldi r1, worker
  sys spawn
  mov r6, r1
  ldi r1, worker
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`
	prog, err := asm.Assemble("allocs", src)
	if err != nil {
		t.Fatal(err)
	}
	var steps uint64
	allocs := testing.AllocsPerRun(5, func() {
		m, err := New(prog, Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		steps = m.Run().TotalSteps
	})
	if steps < 100_000 {
		t.Fatalf("run retired %d instructions, want at least 100k", steps)
	}
	if allocs >= 200 {
		t.Fatalf("native run of %d instructions made %.0f allocations, want fewer than 200", steps, allocs)
	}
}
