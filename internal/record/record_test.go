package record

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

func mustRecord(t *testing.T, src string, cfg machine.Config) (*trace.Log, *machine.Result) {
	t.Helper()
	prog, err := asm.Assemble("rec", src)
	if err != nil {
		t.Fatal(err)
	}
	log, res, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return log, res
}

func TestPredictabilityRuleLogsOnlyFirstLoad(t *testing.T) {
	// One thread loads the same address 10 times; only the first load is
	// unpredictable.
	src := `
.word g 7
main:
  ldi r2, g
  ldi r1, 10
loop:
  ld r3, [r2+0]
  addi r1, r1, -1
  bne r1, r0, loop
  halt
`
	log, _ := mustRecord(t, src, machine.Config{Seed: 1})
	t0 := log.Thread(0)
	if len(t0.Loads) != 1 {
		t.Errorf("logged loads = %d, want 1 (predictability rule)", len(t0.Loads))
	}
	if len(t0.Loads) > 0 && t0.Loads[0].Val != 7 {
		t.Errorf("logged value = %d, want 7", t0.Loads[0].Val)
	}
}

func TestOwnStoreMakesLoadPredictable(t *testing.T) {
	src := `
.word g 0
main:
  ldi r2, g
  ldi r3, 9
  st [r2+0], r3    ; store before any load
  ld r4, [r2+0]    ; predictable: own store
  halt
`
	log, _ := mustRecord(t, src, machine.Config{Seed: 1})
	if n := len(log.Thread(0).Loads); n != 0 {
		t.Errorf("logged loads = %d, want 0 after own store", n)
	}
}

func TestExternalWriteForcesRelog(t *testing.T) {
	// Parent writes, spawns child; child loads (first access: logged),
	// parent then overwrites, child loads again — the second load sees an
	// externally modified value and must be logged again.
	src := `
.entry main
.word flag 0
.word ack 0
.word data 1
child:
  ldi r2, data
  ld r3, [r2+0]      ; logged (first access, value 1)
  ldi r6, ack
  ldi r7, 1
  st [r6+0], r7      ; tell parent the first load happened
  ldi r4, flag
cwait:
  ld r5, [r4+0]      ; spin until parent sets flag
  beq r5, r0, cwait
  ld r3, [r2+0]      ; externally modified: logged again (value 77)
  mov r1, r3
  sys print
  ldi r1, 0
  sys exit
main:
  ldi r1, child
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r7, ack
mwait:
  ld r8, [r7+0]      ; wait for the child's first load
  beq r8, r0, mwait
  ldi r2, data
  ldi r3, 77
  st [r2+0], r3
  ldi r4, flag
  ldi r5, 1
  st [r4+0], r5
  mov r1, r6
  sys join
  halt
`
	log, res := mustRecord(t, src, machine.Config{Seed: 3})
	child := log.Thread(1)
	if child == nil {
		t.Fatal("no child thread log")
	}
	// The child must have logged the data word at least twice (initial 1,
	// then 77) — plus flag spins.
	// Find the address of `data`: the word initialized to 1.
	var dataLogs int
	dataAddr := uint64(0)
	for a, v := range log.Prog.Data {
		if v == 1 {
			dataAddr = a
		}
	}
	vals := []uint64{}
	for _, l := range child.Loads {
		if l.Addr == dataAddr {
			dataLogs++
			vals = append(vals, l.Val)
		}
	}
	if dataLogs != 2 || vals[0] != 1 || vals[1] != 77 {
		t.Errorf("data loads logged = %d (%v), want 2 ([1 77])", dataLogs, vals)
	}
	if out := res.Threads[1].Output; len(out) != 1 || out[0] != 77 {
		t.Errorf("child output = %v, want [77]", out)
	}
}

func TestSequencersBracketThreads(t *testing.T) {
	src := `
.entry main
child:
  fence
  ldi r1, 0
  sys exit
main:
  ldi r1, child
  ldi r2, 0
  sys spawn
  sys join
  halt
`
	log, _ := mustRecord(t, src, machine.Config{Seed: 1})
	if err := log.Validate(); err != nil {
		t.Fatal(err)
	}
	main, child := log.Thread(0), log.Thread(1)
	if main.Seqs[0].Kind != trace.SeqStart || main.Seqs[0].TS != 0 {
		t.Error("main thread should start at TS 0")
	}
	if child.StartTS == 0 {
		t.Error("child StartTS should be parent's spawn timestamp")
	}
	// Child's start sequencer equals the spawn syscall's sequencer TS in
	// the parent log.
	var spawnTS uint64
	for _, s := range main.Seqs {
		if s.Kind == trace.SeqSyscall && s.Aux == 4 { // SysSpawn
			spawnTS = s.TS
		}
	}
	if spawnTS == 0 || child.Seqs[0].TS != spawnTS {
		t.Errorf("child start TS %d, spawn TS %d; want equal", child.Seqs[0].TS, spawnTS)
	}
	// Child end must precede the join's sequencer in the parent.
	var joinTS uint64
	for _, s := range main.Seqs {
		if s.Kind == trace.SeqSyscall && s.Aux == 5 { // SysJoin
			joinTS = s.TS
		}
	}
	if child.EndTS >= joinTS {
		t.Errorf("child EndTS %d should precede parent join TS %d", child.EndTS, joinTS)
	}
}

func TestSyscallResultsLogged(t *testing.T) {
	src := `
main:
  sys rand
  sys gettid
  ldi r1, 3
  sys alloc
  halt
`
	log, _ := mustRecord(t, src, machine.Config{Seed: 5})
	t0 := log.Thread(0)
	if len(t0.SysRets) != 3 {
		t.Fatalf("sysrets = %d, want 3", len(t0.SysRets))
	}
	if t0.SysRets[0].Res == 0 {
		t.Error("rand result should be logged (nonzero with overwhelming probability)")
	}
	if t0.SysRets[1].Res != 0 {
		t.Error("gettid of main should be 0")
	}
	if t0.SysRets[2].Res == 0 {
		t.Error("alloc result should be a heap address")
	}
}

func TestFaultRecorded(t *testing.T) {
	src := "main:\n  ld r1, [r0+0]\n  halt\n"
	log, _ := mustRecord(t, src, machine.Config{Seed: 1})
	t0 := log.Thread(0)
	if t0.EndReason != trace.EndFaulted || t0.Fault == nil {
		t.Fatalf("end reason = %v, fault = %v", t0.EndReason, t0.Fault)
	}
	if t0.Retired != 0 {
		t.Errorf("faulting instruction should not retire; retired = %d", t0.Retired)
	}
}

func TestBudgetExhaustionClosesLog(t *testing.T) {
	src := "main:\n  jmp main\n"
	prog, err := asm.Assemble("spin", src)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := Run(prog, machine.Config{Seed: 1, MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	t0 := log.Thread(0)
	if t0.EndReason != trace.EndRunning {
		t.Errorf("end reason = %v, want running", t0.EndReason)
	}
	if err := log.Validate(); err != nil {
		t.Errorf("budget-exhausted log should validate: %v", err)
	}
}

func TestLogSerializationRoundTripFromRealRun(t *testing.T) {
	src := `
.entry main
.word n 0
worker:
  ldi r2, 20
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
  halt
`
	log, _ := mustRecord(t, src, machine.Config{Seed: 11})
	got, _, err := trace.Decode(trace.MarshalV2(log), trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Instructions() != log.Instructions() {
		t.Error("instruction count changed through serialization")
	}
	if len(got.Threads) != len(log.Threads) {
		t.Fatal("thread count changed")
	}
	for i := range log.Threads {
		a, b := log.Threads[i], got.Threads[i]
		if len(a.Loads) != len(b.Loads) || len(a.Seqs) != len(b.Seqs) || len(a.SysRets) != len(b.SysRets) {
			t.Errorf("thread %d stream lengths changed", i)
		}
	}
}

func TestLogEconomy(t *testing.T) {
	// A loop-heavy single-threaded program should need far less than a
	// word of log per instruction: the paper's sub-bit regime.
	src := `
.word g 1
main:
  ldi r1, 2000
  ldi r2, g
loop:
  ld r3, [r2+0]
  add r4, r4, r3
  addi r1, r1, -1
  bne r1, r0, loop
  halt
`
	log, _ := mustRecord(t, src, machine.Config{Seed: 1})
	s := trace.Stats(log)
	if s.Instructions < 8000 {
		t.Fatalf("instructions = %d, want ~8000", s.Instructions)
	}
	if bits := s.RawBitsPerInstr(); bits > 2.0 {
		t.Errorf("raw bits/instruction = %.2f, want < 2 for a predictable loop", bits)
	}
}

func TestKeyFrameRecording(t *testing.T) {
	src := `
.word g 1
main:
  ldi r1, 40
  ldi r2, g
loop:
  ld r3, [r2+0]
  add r4, r4, r3
  st [r2+0], r4
  addi r1, r1, -1
  bne r1, r0, loop
  halt
`
	prog, err := asm.Assemble("kf", src)
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := RunOnline(prog, machine.Config{Seed: 2}, OnlineConfig{KeyFrameInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	t0 := log.Thread(0)
	if len(t0.KeyFrames) == 0 {
		t.Fatal("no key frames recorded")
	}
	for i, kf := range t0.KeyFrames {
		if kf.Idx%10 != 0 {
			t.Errorf("frame %d at idx %d, want a multiple of the interval", i, kf.Idx)
		}
		if kf.Idx > 10 && len(kf.View) == 0 {
			t.Errorf("frame %d has an empty view after memory traffic", i)
		}
		// Views are sorted by address (delta-encoding requirement).
		for j := 1; j < len(kf.View); j++ {
			if kf.View[j].Addr <= kf.View[j-1].Addr {
				t.Errorf("frame %d view not sorted", i)
			}
		}
	}
	if err := log.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKeyFramesIgnoreDetection: key frames depend on the execution
// alone. With the online detector on, a racy counter gets the same frame
// at every multiple of the interval N as without it; and a recording
// stopped at the first race keeps, for each thread, the frames the plain
// recording holds up to that thread's retired count.
func TestKeyFramesIgnoreDetection(t *testing.T) {
	const n = 4
	prog, err := asm.Assemble("kf", `
.entry main
.word c 0
worker:
  ldi r2, 60
wloop:
  ldi r4, c
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
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
`)
	if err != nil {
		t.Fatal(err)
	}
	record := func(oc OnlineConfig) (*trace.Log, *machine.Result) {
		oc.KeyFrameInterval = n
		log, res, rep, err := RunOnline(prog, machine.Config{Seed: 3}, oc)
		if err != nil {
			t.Fatal(err)
		}
		if oc.Detect && rep.RaceFree {
			t.Fatal("the counter does not race at this seed")
		}
		return log, res
	}
	plain, _ := record(OnlineConfig{})
	online, _ := record(OnlineConfig{Detect: true})
	stopped, res := record(OnlineConfig{Detect: true, StopOnFirstRace: true})
	if !res.Stopped {
		t.Fatal("the stop-on-race recording ran to the end")
	}
	cut := false // some thread retired fewer instructions in the stopped log
	for _, tl := range plain.Threads {
		every := tl.KeyFrames
		if uint64(len(every)) != tl.Retired/n {
			t.Fatalf("thread %d: %d frames over %d instructions without detection, want one per %d", tl.TID, len(every), tl.Retired, n)
		}
		for i, kf := range every {
			if kf.Idx != uint64(i+1)*n {
				t.Fatalf("thread %d: frame %d at %d without detection, want %d", tl.TID, i, kf.Idx, (i+1)*n)
			}
		}
		if got := online.Thread(tl.TID).KeyFrames; !reflect.DeepEqual(got, every) {
			t.Errorf("thread %d: %d key frames with detection differ from the %d without", tl.TID, len(got), len(every))
		}
		st := stopped.Thread(tl.TID)
		if st == nil {
			continue
		}
		kept := st.KeyFrames
		if uint64(len(kept)) != st.Retired/n {
			t.Errorf("thread %d: stopped log keeps %d frames over %d instructions, want one per %d", tl.TID, len(kept), st.Retired, n)
		}
		for i, kf := range kept {
			if i >= len(every) || !reflect.DeepEqual(kf, every[i]) {
				t.Errorf("thread %d: stopped log's frame %d at %d differs from the plain log's", tl.TID, i, kf.Idx)
				break
			}
		}
		cut = cut || st.Retired < tl.Retired
	}
	if !cut {
		t.Error("no thread was cut short by the stop")
	}
}

// eventTap is a bare machine observer that tallies the raw event stream
// and each thread's retired instructions in end order.
type eventTap struct {
	counts  map[string]uint64
	retired []int
}

func (e *eventTap) ThreadStarted(t *machine.Thread, startTS uint64) { e.counts["threads_started"]++ }
func (e *eventTap) ThreadEnded(t *machine.Thread, endTS uint64) {
	e.counts["threads_ended"]++
	e.retired = append(e.retired, int(t.Retired))
}
func (e *eventTap) Load(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	e.access("loads", atomic)
}
func (e *eventTap) Store(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	e.access("stores", atomic)
}
func (e *eventTap) access(kind string, atomic bool) {
	e.counts[kind]++
	if atomic {
		e.counts["atomic_ops"]++
	}
}
func (e *eventTap) Sequencer(tid int, idx uint64, ts uint64, op isa.Op, sysNum int64) {
	e.counts["sequencers"]++
}
func (e *eventTap) SyscallRet(tid int, idx uint64, res uint64) { e.counts["syscall_returns"]++ }

// recorderCounter names the counter the recorder publishes for each
// event kind the tap tallies.
var recorderCounter = map[string]string{
	"loads":           "record.loads_total",
	"stores":          "record.stores",
	"atomic_ops":      "machine.atomic_ops",
	"sequencers":      "record.sequencers",
	"syscall_returns": "record.syscall_returns",
	"threads_started": "record.threads",
	"threads_ended":   "machine.threads_ended",
}

// TestMachineCountersMatchEventTap checks the recorder's event counters
// and its instructions-per-thread histogram against a tap on a bare
// machine run of the same seed, for a plain recording and for one with
// the online detector and key frames riding along.
func TestMachineCountersMatchEventTap(t *testing.T) {
	prog, err := asm.Assemble("tap", `
.entry main
.word g 0
.word l 0
worker:
  ldi r2, g
  ldi r4, l
  lock [r4+0]
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  unlock [r4+0]
  ldi r5, 1
  xadd r6, [r2+0], r5
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
  ldi r2, g
  ld r1, [r2+0]
  sys print
  halt
`)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	tap := &eventTap{counts: map[string]uint64{}}
	m, err := machine.New(prog, machine.Config{Seed: seed, Observer: tap})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	for _, kind := range []string{"loads", "stores", "atomic_ops", "sequencers", "syscall_returns", "threads_started", "threads_ended"} {
		if tap.counts[kind] == 0 {
			t.Fatalf("the program produced no %s", kind)
		}
	}
	sum, lo, hi := 0, tap.retired[0], tap.retired[0]
	for _, n := range tap.retired {
		sum += n
		lo, hi = min(lo, n), max(hi, n)
	}

	for _, oc := range []OnlineConfig{{}, {Detect: true, KeyFrameInterval: 4}} {
		reg := obs.NewRegistry()
		if _, _, _, err := RunOnlineInstrumented(prog, machine.Config{Seed: seed}, oc, reg); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		for kind, want := range tap.counts {
			if got := snap.Counters[recorderCounter[kind]]; got != want {
				t.Errorf("%+v: %s = %d, want %d", oc, recorderCounter[kind], got, want)
			}
		}
		h := snap.Histograms["machine.instructions_per_thread"]
		if h.Count != uint64(len(tap.retired)) || h.Sum != int64(sum) || h.Min != lo || h.Max != hi {
			t.Errorf("%+v: machine.instructions_per_thread = %+v, want count %d sum %d min %d max %d",
				oc, h, len(tap.retired), sum, lo, hi)
		}
	}
}
