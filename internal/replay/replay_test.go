package replay_test

import (
	"fmt"
	"repro/internal/replay"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/trace"
)

// recordSrc assembles src, records one run, and returns the log plus the
// live machine result for comparison.
func recordSrc(t *testing.T, src string, cfg machine.Config) (*trace.Log, *machine.Result) {
	t.Helper()
	prog, err := asm.Assemble("rp", src)
	if err != nil {
		t.Fatal(err)
	}
	log, res, err := record.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return log, res
}

// assertReplayMatches replays log and checks per-thread output and final
// register state against the original machine run.
func assertReplayMatches(t *testing.T, log *trace.Log, res *machine.Result) *replay.Execution {
	t.Helper()
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range res.Threads {
		rt := exec.Thread(mt.ID)
		if rt == nil {
			t.Fatalf("thread %d missing from replay", mt.ID)
		}
		if len(rt.Output) != len(mt.Output) {
			t.Fatalf("thread %d output length: replay %v vs live %v", mt.ID, rt.Output, mt.Output)
		}
		for i := range mt.Output {
			if rt.Output[i] != mt.Output[i] {
				t.Fatalf("thread %d output[%d]: replay %d vs live %d", mt.ID, i, rt.Output[i], mt.Output[i])
			}
		}
		if rt.FinalCpu.Regs != mt.Cpu.Regs {
			t.Fatalf("thread %d final registers differ:\nreplay %v\nlive   %v", mt.ID, rt.FinalCpu.Regs, mt.Cpu.Regs)
		}
	}
	return exec
}

const racyCounterSrc = `
.entry main
.word n 0
worker:
  ldi r2, 40
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

func TestReplayReproducesSingleThread(t *testing.T) {
	src := `
.word g 3
main:
  ldi r1, 100
  ldi r2, g
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
	log, res := recordSrc(t, src, machine.Config{Seed: 1})
	assertReplayMatches(t, log, res)
}

func TestReplayReproducesRacyMultithread(t *testing.T) {
	// The central determinism property: even for an unsynchronized racy
	// program, replay must reproduce exactly what the recorded run did —
	// for every scheduler seed.
	for seed := int64(1); seed <= 25; seed++ {
		log, res := recordSrc(t, racyCounterSrc, machine.Config{Seed: seed})
		assertReplayMatches(t, log, res)
	}
}

func TestReplayAfterSerializationRoundTrip(t *testing.T) {
	log, res := recordSrc(t, racyCounterSrc, machine.Config{Seed: 17})
	log2, _, err := trace.Decode(trace.MarshalV2(log), trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertReplayMatches(t, log2, res)
}

func TestReplayReproducesSyscallResults(t *testing.T) {
	src := `
main:
  sys rand
  sys print
  sys rand
  sys print
  sys time
  sys print
  halt
`
	log, res := recordSrc(t, src, machine.Config{Seed: 9})
	assertReplayMatches(t, log, res)
}

func TestReplayLocksAndAtomics(t *testing.T) {
	src := `
.entry main
.word mu 0
.word n 0
worker:
  ldi r2, 30
wloop:
  ldi r3, mu
  lock [r3+0]
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  unlock [r3+0]
  ldi r6, 1
  xadd r7, [r4+1], r6
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
  ld r1, [r2+1]
  sys print
  halt
`
	for _, seed := range []int64{2, 8, 21} {
		log, res := recordSrc(t, src, machine.Config{Seed: seed})
		exec := assertReplayMatches(t, log, res)
		if out := exec.Thread(0).Output; len(out) != 2 || out[0] != 60 || out[1] != 60 {
			t.Errorf("seed %d: output = %v, want [60 60]", seed, out)
		}
	}
}

func TestRegionsPartitionThreads(t *testing.T) {
	log, _ := recordSrc(t, racyCounterSrc, machine.Config{Seed: 4})
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range exec.Threads {
		tl := log.Thread(th.TID)
		var covered uint64
		for i, r := range th.Regions {
			if r.StartIdx != covered {
				t.Fatalf("thread %d region %d not contiguous: starts %d, want %d", th.TID, i, r.StartIdx, covered)
			}
			if r.EndIdx < r.StartIdx {
				t.Fatalf("thread %d region %d inverted", th.TID, i)
			}
			if r.EndTS <= r.StartTS {
				t.Fatalf("thread %d region %d has empty TS interval", th.TID, i)
			}
			covered = r.EndIdx
		}
		if covered != tl.Retired {
			t.Fatalf("thread %d regions cover %d of %d instructions", th.TID, covered, tl.Retired)
		}
	}
	// Schedule order is by StartTS.
	for i := 1; i < len(exec.Regions); i++ {
		if exec.Regions[i].StartTS < exec.Regions[i-1].StartTS {
			t.Fatal("regions not in schedule order")
		}
		if exec.Regions[i].Global != i {
			t.Fatal("Global index not assigned in schedule order")
		}
	}
}

func TestRegionOverlap(t *testing.T) {
	a := &replay.Region{TID: 0, StartTS: 1, EndTS: 5}
	b := &replay.Region{TID: 1, StartTS: 4, EndTS: 9}
	c := &replay.Region{TID: 1, StartTS: 5, EndTS: 9}
	d := &replay.Region{TID: 0, StartTS: 4, EndTS: 9}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("intersecting intervals should overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("touching intervals are ordered by the shared sequencer")
	}
	if a.Overlaps(d) {
		t.Error("same-thread regions never overlap")
	}
}

func TestAccessesRecordedWithValues(t *testing.T) {
	src := `
.word g 5
main:
  ldi r2, g
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  halt
`
	log, _ := recordSrc(t, src, machine.Config{Seed: 1})
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []replay.Access
	for _, r := range exec.Regions {
		got = append(got, r.Accesses...)
	}
	if len(got) != 2 {
		t.Fatalf("accesses = %d, want 2 (%v)", len(got), got)
	}
	ldAcc, stAcc := got[0], got[1]
	if ldAcc.IsWrite || ldAcc.Val != 5 {
		t.Errorf("load access = %+v, want read of 5", ldAcc)
	}
	if !stAcc.IsWrite || stAcc.Val != 6 {
		t.Errorf("store access = %+v, want write of 6", stAcc)
	}
}

func TestLiveInReconstruction(t *testing.T) {
	src := `
.word g 5
.word h 1
.word k 2
main:
  ldi r2, g
  ld r3, [r2+0]
  ldi r5, h
  ldi r6, 8
  st [r5+0], r6
  ldi r5, k
  ldi r6, 3
  st [r5+0], r6
  ld r7, [r5+0]
  fence
  addi r3, r3, 2
  st [r2+0], r3
  fence
  ld r4, [r2+0]
  halt
`
	log, _ := recordSrc(t, src, machine.Config{Seed: 1})
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addrOf := map[uint64]uint64{}
	for a, v := range log.Prog.Data {
		addrOf[v] = a
	}
	gAddr, hAddr, kAddr := addrOf[5], addrOf[1], addrOf[2]
	t0 := exec.Thread(0)
	if len(t0.Regions) != 3 {
		t.Fatalf("regions = %d, want 3", len(t0.Regions))
	}
	mem := exec.Memory()
	for _, c := range []struct {
		name   string
		addr   uint64
		region int
		want   uint64
		known  bool
	}{
		{"g in region 0 (its own first read)", gAddr, 0, 5, true},
		{"g in region 1 (region 0's value)", gAddr, 1, 5, true},
		{"g in region 2 (region 1's write)", gAddr, 2, 7, true},
		{"h in region 0 (first touched by a write)", hAddr, 0, 0, false},
		{"h in region 1 (not touched)", hAddr, 1, 0, false},
		{"k in region 0 (read after its own write)", kAddr, 0, 3, true},
	} {
		v, ok := mem.LiveIn(c.addr, t0.Regions[c.region].Global)
		if v != c.want || ok != c.known {
			t.Errorf("%s: live-in = %d,%v, want %d,%v", c.name, v, ok, c.want, c.known)
		}
	}
	if v, ok := mem.Before(gAddr, len(exec.Regions)); !ok || v != 7 {
		t.Errorf("final image[g] = %d,%v, want 7", v, ok)
	}
	if v, ok := mem.Before(hAddr, 1); !ok || v != 8 {
		t.Errorf("image[h] after region 0 = %d,%v, want 8", v, ok)
	}
}

func TestHeapEventsAndPoisonTracking(t *testing.T) {
	src := `
main:
  ldi r1, 4
  sys alloc
  mov r4, r1
  ldi r2, 9
  st [r4+0], r2
  fence
  mov r1, r4
  sys free
  fence
  halt
`
	log, _ := recordSrc(t, src, machine.Config{Seed: 1})
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.HeapEvents) != 2 {
		t.Fatalf("heap events = %d, want 2", len(exec.HeapEvents))
	}
	base := exec.HeapEvents[0].Base
	if exec.HeapEvents[0].Kind != replay.HeapAlloc || exec.HeapEvents[1].Kind != replay.HeapFree {
		t.Fatal("heap event kinds wrong")
	}
	if exec.PoisonedAt(base, 1) {
		t.Error("block should be live after alloc")
	}
	if !exec.PoisonedAt(base, 2) {
		t.Error("block should be poisoned after free")
	}
	if !exec.PoisonedAt(base+3, 2) {
		t.Error("whole block should be poisoned")
	}
	if _, ok := exec.BlockAt(base, 1); !ok {
		t.Error("BlockAt should see the live block")
	}
	if _, ok := exec.BlockAt(base, 2); ok {
		t.Error("BlockAt should not see the freed block")
	}
}

// TestFreeOfADeadBlockLeavesNoEvent: replay mirrors a free into the heap
// events only when its base is a live block, as BlockAt answers at that
// epoch. A recorded run never retires a double free (the machine faults
// on it), so the test edits the log to retire one, as a crafted upload
// could.
func TestFreeOfADeadBlockLeavesNoEvent(t *testing.T) {
	src := `
main:
  ldi r1, 4
  sys alloc
  mov r4, r1
  sys free
  mov r1, r4
  sys free
  halt
`
	log, _ := recordSrc(t, src, machine.Config{Seed: 1})
	tl := log.Threads[0]
	if tl.EndReason != trace.EndFaulted {
		t.Fatalf("the second free ended the thread %v, want a fault", tl.EndReason)
	}
	// Retire the second free (result 0) and the halt after it.
	k, end := tl.Retired, tl.Seqs[len(tl.Seqs)-1]
	tl.SysRets = append(tl.SysRets, trace.SysRec{Idx: k})
	tl.Seqs = append(tl.Seqs[:len(tl.Seqs)-1],
		trace.Sequencer{Idx: k, TS: end.TS, Kind: trace.SeqSyscall, Aux: isa.SysFree},
		trace.Sequencer{Idx: k + 2, TS: end.TS + 1, Kind: trace.SeqEnd, Aux: -1})
	tl.Retired, tl.EndReason, tl.Fault = k+2, trace.EndHalted, nil
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.HeapEvents) != 2 || exec.HeapEvents[1].Kind != replay.HeapFree {
		t.Fatalf("heap events %v, want one alloc and one free", exec.HeapEvents)
	}
}

func TestReplayReproducesFaultedThreadPrefix(t *testing.T) {
	// A thread that faults is replayed up to (not including) the faulting
	// instruction; its end reason comes from the log.
	src := `
main:
  ldi r1, 7
  sys print
  ld r2, [r0+0]   ; null access: faults
  halt
`
	log, _ := recordSrc(t, src, machine.Config{Seed: 1})
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := exec.Thread(0)
	if t0.EndReason != trace.EndFaulted {
		t.Errorf("end reason = %v, want faulted", t0.EndReason)
	}
	if len(t0.Output) != 1 || t0.Output[0] != 7 {
		t.Errorf("output = %v, want [7]", t0.Output)
	}
}

func TestReplayDetectsCorruptLog(t *testing.T) {
	log, _ := recordSrc(t, racyCounterSrc, machine.Config{Seed: 6})

	// Drop a load record: some load becomes uninjectable and the replay
	// must fail loudly rather than silently diverge.
	victim := log.Thread(1)
	if len(victim.Loads) == 0 {
		t.Fatal("expected logged loads")
	}
	corrupted := *victim
	corrupted.Loads = corrupted.Loads[:0]
	mut := &trace.Log{
		Prog:       log.Prog,
		Seed:       log.Seed,
		FinalClock: log.FinalClock,
		TotalSteps: log.TotalSteps,
	}
	for _, tl := range log.Threads {
		if tl.TID == 1 {
			mut.Threads = append(mut.Threads, &corrupted)
		} else {
			mut.Threads = append(mut.Threads, tl)
		}
	}
	if _, err := replay.Run(mut, replay.Options{}); err == nil {
		t.Error("replay of corrupt log should fail")
	}
}

// TestReplayDeterminismProperty drives many random programs through the
// record→replay pipeline: for every (program shape, seed) the replayed
// final state must equal the live state. This is the repo's central
// property test — if it holds, per-thread logs are genuinely
// self-contained.
func TestReplayDeterminismProperty(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(workers, iters int) string
	}{
		{"racy", func(workers, iters int) string {
			return genWorkers(workers, iters, `
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
`)
		}},
		{"locked", func(workers, iters int) string {
			return genWorkers(workers, iters, `
  ldi r3, mu
  lock [r3+0]
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  unlock [r3+0]
`)
		}},
		{"atomic", func(workers, iters int) string {
			return genWorkers(workers, iters, `
  ldi r4, n
  ldi r6, 1
  xadd r5, [r4+0], r6
`)
		}},
		{"mixed", func(workers, iters int) string {
			return genWorkers(workers, iters, `
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  sys rand
  andi r5, r1, 7
  st [r4+1], r5
  sys yield
`)
		}},
	}
	for _, shape := range shapes {
		for workers := 1; workers <= 3; workers++ {
			for seed := int64(1); seed <= 5; seed++ {
				src := shape.gen(workers, 15)
				log, res := recordSrc(t, src, machine.Config{Seed: seed})
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s workers=%d seed=%d: panic %v", shape.name, workers, seed, r)
						}
					}()
					assertReplayMatches(t, log, res)
				}()
			}
		}
	}
}

// genWorkers builds a program with n workers each running `body` iters
// times, joined by main.
func genWorkers(n, iters int, body string) string {
	src := `
.entry main
.word mu 0
.word n 0
worker:
  ldi r2, ` + fmt.Sprint(iters) + `
wloop:` + body + `
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
main:
`
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("  ldi r1, worker\n  ldi r2, %d\n  sys spawn\n  mov r%d, r1\n", i, 6+i)
	}
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("  mov r1, r%d\n  sys join\n", 6+i)
	}
	src += "  ldi r2, n\n  ld r1, [r2+0]\n  sys print\n  halt\n"
	return src
}

func TestTimeTravelPrefixes(t *testing.T) {
	log, _ := recordSrc(t, racyCounterSrc, machine.Config{Seed: 9})
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := len(exec.Regions)
	if total < 3 {
		t.Skip("too few regions")
	}
	// The last value the run gave each address it touched.
	final := map[uint64]uint64{}
	for _, r := range exec.Regions {
		for _, a := range r.Accesses {
			final[a.Addr] = a.Val
		}
	}
	// The image after n regions only grows going forward in time, and
	// after all of them it is the final image.
	mem := exec.Memory()
	prev := -1
	for n := 0; n <= total; n++ {
		known := 0
		for addr := range final {
			if _, ok := mem.Before(addr, n); ok {
				known++
			}
		}
		if known < prev {
			t.Errorf("memory image shrank going forward in time, at %d regions", n)
		}
		prev = known
	}
	for addr, v := range final {
		if got, ok := mem.Before(addr, total); !ok || got != v {
			t.Errorf("image after %d regions: mem[0x%x] = %d,%v, want %d", total, addr, got, ok, v)
		}
	}
}

func TestReplayReproducesPCTAndRoundRobinSchedules(t *testing.T) {
	// Replay determinism is schedule-agnostic: logs recorded under any
	// scheduler policy replay exactly.
	for _, policy := range []machine.SchedPolicy{machine.PolicyRoundRobin, machine.PolicyPCT} {
		for seed := int64(1); seed <= 6; seed++ {
			log, res := recordSrc(t, racyCounterSrc, machine.Config{Seed: seed, Policy: policy})
			assertReplayMatches(t, log, res)
		}
	}
}
