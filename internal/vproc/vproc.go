// Package vproc implements the paper's virtual processor: the machinery
// that replays one data-race instance twice — once per order of the two
// racing memory operations — and compares the resulting live-out states
// (§4.2, §4.3).
//
// A virtual processor executes the two sequencing regions that contain the
// race in isolation. It is initialized with the regions' live-in register
// states and a copy-on-read view of the live-in memory values replay
// reconstructed; the first read of a location copies the value from
// live-in, and from then on all reads and writes use the local copy. Both
// orders run the same schedule — region A's prefix, region B's prefix, the
// two racing operations (in the order under test), region A's remainder,
// region B's remainder — so the only variable between the two runs is the
// order of the racing pair.
//
// Replay failures (§4.2.1) arise exactly as in the paper: the alternative
// order may read an address whose value was never captured, diverge onto a
// control-flow path that leaves the recorded region (in this ISA, reaching
// any synchronization instruction mid-region means we left it), fault
// (null access, use-after-free, bad free, division by zero), or fail to
// line up with the recorded racing instruction.
package vproc

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Outcome is the verdict of one dual-order replay (§5.2.1).
type Outcome int

const (
	// NoStateChange: both orders completed with identical live-outs.
	NoStateChange Outcome = iota
	// StateChange: both orders completed; the live-outs differ.
	StateChange
	// ReplayFailure: at least one order could not be replayed to the end
	// of its regions.
	ReplayFailure
)

func (o Outcome) String() string {
	switch o {
	case NoStateChange:
		return "no-state-change"
	case StateChange:
		return "state-change"
	case ReplayFailure:
		return "replay-failure"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// RacePair names one race instance: the two regions and the thread-local
// instruction indices (and recorded PCs) of the racing operations.
type RacePair struct {
	RegionA, RegionB *replay.Region
	IdxA, IdxB       uint64
	PCA, PCB         int
	Addr             uint64
}

// Diff is one live-out discrepancy between the two orders.
type Diff struct {
	Kind  string // "reg", "pc", "mem", "output", "status"
	TID   int    // owning thread for reg/pc/status; -1 for mem/output
	Index uint64 // register number or memory address
	Orig  uint64
	Alt   uint64
}

func (d Diff) String() string {
	switch d.Kind {
	case "reg":
		return fmt.Sprintf("thread %d r%d: %d vs %d", d.TID, d.Index, d.Orig, d.Alt)
	case "pc":
		return fmt.Sprintf("thread %d pc: %d vs %d", d.TID, d.Orig, d.Alt)
	case "mem":
		return fmt.Sprintf("mem[0x%x]: %d vs %d", d.Index, d.Orig, d.Alt)
	case "output":
		return fmt.Sprintf("output diverged (%d vs %d values)", d.Orig, d.Alt)
	default:
		return fmt.Sprintf("%s thread %d: %d vs %d", d.Kind, d.TID, d.Orig, d.Alt)
	}
}

// Result is the analysis of one race instance.
type Result struct {
	Outcome    Outcome
	FailReason string // set for ReplayFailure
	Diffs      []Diff // set for StateChange

	// OrigFail and AltFail record each order's individual failure
	// reason ("" = that order replayed cleanly). Both orders always
	// run, so both fields are meaningful even when one failed — the
	// audit trail records what each order produced, not just the
	// combined verdict. Like everything in Result they are a pure
	// function of the instance's live-in fingerprint, so memoization
	// preserves them.
	OrigFail string
	AltFail  string
}

// Options tunes the virtual processor.
type Options struct {
	// Oracle, when set, supplies values for addresses outside the two
	// regions' live-ins instead of failing the replay — the §4.2.1
	// "log enough information to continue" extension, run only as
	// ablation A3. The base tool of the paper, and so the classifier,
	// runs without it, and a Fingerprint describes that oracle-free
	// replay.
	Oracle *replay.VersionedMemory
}

// Scratch holds the reusable working state of one virtual-processor
// invocation: the copy-on-read memory views, heap bookkeeping, and the
// comparison buffers. A caller that analyzes many instances passes the
// same Scratch to every Analyze call and pays the map and slice
// allocations only once; the maps are cleared, not reallocated, between
// instances. A Scratch must not be shared between concurrent calls.
// Results never alias scratch memory, so they stay valid (and safe to
// cache) after the scratch is reused.
type Scratch struct {
	// Two slots: the original order's live-out memory must survive while
	// the alternative order runs, so the two runs cannot share one set of
	// maps.
	slots [2]vpScratch
	addrs []uint64 // compare's sorted written-address buffer
}

type vpScratch struct {
	local   map[uint64]uint64
	written map[uint64]uint64
	freed   map[uint64]bool
	blocks  map[uint64]uint64
	output  []int64

	// In-place homes for the per-order working structs. runOrder re-
	// initializes them on entry, so only the maps and slices above carry
	// state (deliberately) across instances.
	vp     vp
	ta, tb vpThread
	state  runState
}

func (s *vpScratch) reset() {
	if s.local == nil {
		s.local = make(map[uint64]uint64)
		s.written = make(map[uint64]uint64)
		s.freed = make(map[uint64]bool)
		s.blocks = make(map[uint64]uint64)
	} else {
		clear(s.local)
		clear(s.written)
		clear(s.freed)
		clear(s.blocks)
	}
	s.output = s.output[:0]
}

// Analyze replays the race instance in both orders under opts and
// classifies it; the zero Options is the paper's base configuration (no
// oracle). sc's buffers hold the replay's working state; a nil sc
// allocates fresh state. Analyze publishes no metrics: classify counts
// the vproc.* counters from the Result, cached or replayed alike.
func Analyze(exec *replay.Execution, pair RacePair, opts Options, sc *Scratch) Result {
	// Canonicalize: region A is the earlier-scheduled region. The
	// "original order" approximation and the prefix execution order are
	// defined by the schedule, not by how the caller happened to present
	// the pair — so the verdict is a property of the instance itself.
	if pair.RegionB.Global < pair.RegionA.Global {
		pair.RegionA, pair.RegionB = pair.RegionB, pair.RegionA
		pair.IdxA, pair.IdxB = pair.IdxB, pair.IdxA
		pair.PCA, pair.PCB = pair.PCB, pair.PCA
	}
	if sc == nil {
		sc = &Scratch{}
	}
	orig, failO := runOrder(exec, pair, true, opts, &sc.slots[0])
	alt, failA := runOrder(exec, pair, false, opts, &sc.slots[1])
	if failO != "" {
		return Result{Outcome: ReplayFailure, FailReason: "original order: " + failO,
			OrigFail: failO, AltFail: failA}
	}
	if failA != "" {
		return Result{Outcome: ReplayFailure, FailReason: "alternative order: " + failA,
			AltFail: failA}
	}
	diffs := compare(orig, alt, sc)
	if len(diffs) == 0 {
		return Result{Outcome: NoStateChange}
	}
	return Result{Outcome: StateChange, Diffs: diffs}
}

// runState is the live-out of one dual-region execution.
type runState struct {
	tidA, tidB   int
	cpuA, cpuB   machine.Cpu
	doneA, doneB bool
	written      map[uint64]uint64
	output       []int64
}

// runOrder executes the schedule with the racing pair in the given order
// (aFirst=true is the approximated original order). It returns the final
// state or a failure reason.
func runOrder(exec *replay.Execution, pair RacePair, aFirst bool, opts Options, sc *vpScratch) (*runState, string) {
	v := newVP(exec, pair, sc)
	defer func() { sc.output = v.output }() // keep the grown buffer for reuse
	v.oracle = opts.Oracle
	ta := v.newThread(pair.RegionA, &sc.ta)
	tb := v.newThread(pair.RegionB, &sc.tb)

	// Prefixes: each region up to (excluding) its racing operation.
	if msg := ta.runSteps(pair.IdxA - pair.RegionA.StartIdx); msg != "" {
		return nil, msg
	}
	if msg := tb.runSteps(pair.IdxB - pair.RegionB.StartIdx); msg != "" {
		return nil, msg
	}
	// The replay must have lined us up on the recorded racing
	// instructions; anything else is a control-flow divergence.
	if ta.cpu.PC != pair.PCA {
		return nil, fmt.Sprintf("control flow diverged before racing op in thread %d (pc %d, want %d)",
			ta.region.TID, ta.cpu.PC, pair.PCA)
	}
	if tb.cpu.PC != pair.PCB {
		return nil, fmt.Sprintf("control flow diverged before racing op in thread %d (pc %d, want %d)",
			tb.region.TID, tb.cpu.PC, pair.PCB)
	}

	// The racing operations, in the order under test.
	first, second := ta, tb
	if !aFirst {
		first, second = tb, ta
	}
	if msg := first.runSteps(1); msg != "" {
		return nil, msg
	}
	if msg := second.runSteps(1); msg != "" {
		return nil, msg
	}

	// Remainders, in a fixed order for both runs. An alternative order may
	// legitimately take a longer path to the region's closing sync (e.g.
	// one extra spin-loop iteration), so the remainder budget is generous;
	// a run that exhausts it without reaching the region's end is a
	// replay failure.
	budget := func(r *replay.Region) uint64 { return 4*(r.EndIdx-r.StartIdx) + 256 }
	if msg := ta.runSteps(budget(pair.RegionA)); msg != "" {
		return nil, msg
	}
	if msg := tb.runSteps(budget(pair.RegionB)); msg != "" {
		return nil, msg
	}
	if !ta.done || !tb.done {
		return nil, "step budget exhausted before the regions completed"
	}

	st := &sc.state
	*st = runState{
		tidA: pair.RegionA.TID, tidB: pair.RegionB.TID,
		cpuA: ta.cpu, cpuB: tb.cpu,
		doneA: ta.done, doneB: tb.done,
		written: v.written,
		output:  v.output,
	}
	return st, ""
}

// compare diffs two run states. The returned diffs are freshly
// allocated (they escape into the Result); only the address-collation
// buffer comes from the scratch.
func compare(o, a *runState, sc *Scratch) []Diff {
	var diffs []Diff
	cmpCpu := func(tid int, x, y machine.Cpu, dx, dy bool) {
		for i := range x.Regs {
			if x.Regs[i] != y.Regs[i] {
				diffs = append(diffs, Diff{Kind: "reg", TID: tid, Index: uint64(i), Orig: x.Regs[i], Alt: y.Regs[i]})
			}
		}
		if x.PC != y.PC {
			diffs = append(diffs, Diff{Kind: "pc", TID: tid, Orig: uint64(x.PC), Alt: uint64(y.PC)})
		}
		if dx != dy {
			diffs = append(diffs, Diff{Kind: "status", TID: tid, Orig: b2u(dx), Alt: b2u(dy)})
		}
	}
	cmpCpu(o.tidA, o.cpuA, a.cpuA, o.doneA, a.doneA)
	cmpCpu(o.tidB, o.cpuB, a.cpuB, o.doneB, a.doneB)

	// Union of written addresses in ascending order: collect both key
	// sets, sort, and skip adjacent duplicates (cheaper than a set map,
	// same iteration order).
	sorted := sc.addrs[:0]
	for k := range o.written {
		sorted = append(sorted, k)
	}
	for k := range a.written {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sc.addrs = sorted
	for i, k := range sorted {
		if i > 0 && sorted[i-1] == k {
			continue
		}
		x, y := o.written[k], a.written[k]
		if x != y {
			diffs = append(diffs, Diff{Kind: "mem", TID: -1, Index: k, Orig: x, Alt: y})
		}
	}

	if len(o.output) != len(a.output) {
		diffs = append(diffs, Diff{Kind: "output", TID: -1, Orig: uint64(len(o.output)), Alt: uint64(len(a.output))})
	} else {
		for i := range o.output {
			if o.output[i] != a.output[i] {
				diffs = append(diffs, Diff{Kind: "output", TID: -1, Index: uint64(i),
					Orig: uint64(o.output[i]), Alt: uint64(a.output[i])})
			}
		}
	}
	return diffs
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// vp is the shared state of one virtual processor.
type vp struct {
	exec       *replay.Execution
	oracle     *replay.VersionedMemory
	regA, regB *replay.Region
	local      map[uint64]uint64
	written    map[uint64]uint64
	heapEpoch  int
	freed      map[uint64]bool   // word-granular local frees
	blocks     map[uint64]uint64 // locally created allocations
	vheapNext  uint64
	output     []int64
}

func newVP(exec *replay.Execution, pair RacePair, sc *vpScratch) *vp {
	sc.reset()
	v := &sc.vp
	*v = vp{
		exec:      exec,
		regA:      pair.RegionA,
		regB:      pair.RegionB,
		local:     sc.local,
		written:   sc.written,
		heapEpoch: pair.RegionA.HeapEpoch,
		freed:     sc.freed,
		blocks:    sc.blocks,
		output:    sc.output,
		// Virtual allocations land far above anything real so they never
		// collide with recorded addresses; both orders allocate the same
		// way, keeping the comparison fair.
		vheapNext: isa.HeapBase << 8,
	}
	if pair.RegionB.HeapEpoch < v.heapEpoch {
		v.heapEpoch = pair.RegionB.HeapEpoch
	}
	return v
}

// liveInFor resolves a first read of addr by a thread running `own`: the
// thread prefers the value its own region observed at entry (that is what
// keeps prefix replay on the recorded path), and falls back to the other
// region's live-in for addresses only the peer captured. Both come from
// the execution's memory history.
func (v *vp) liveInFor(own *replay.Region, addr uint64) (uint64, bool) {
	mem := v.exec.Memory()
	if val, ok := mem.LiveIn(addr, own.Global); ok {
		return val, true
	}
	other := v.regA
	if own == v.regA {
		other = v.regB
	}
	return mem.LiveIn(addr, other.Global)
}

func (v *vp) poisoned(addr uint64) bool {
	if v.freed[addr] {
		return true
	}
	return v.exec.PoisonedAt(addr, v.heapEpoch)
}

// vpThread executes one region's instruction stream on the vp.
type vpThread struct {
	vp      *vp
	region  *replay.Region
	log     *trace.ThreadLog
	cpu     machine.Cpu
	idx     uint64 // thread-local instruction index (within the original log)
	closePC int    // pc of the sync instruction that closed the region, or -1
	done    bool
	fail    string
}

func (v *vp) newThread(region *replay.Region, t *vpThread) *vpThread {
	// The region's closing sync instruction is the opener of the thread's
	// next region; reaching its pc means the region completed.
	closePC := -1
	if th := v.exec.Thread(region.TID); th != nil && region.Ordinal+1 < len(th.Regions) {
		closePC = th.Regions[region.Ordinal+1].StartCpu.PC
	}
	*t = vpThread{
		vp:      v,
		region:  region,
		log:     v.exec.Log.Thread(region.TID),
		cpu:     region.StartCpu,
		idx:     region.StartIdx,
		closePC: closePC,
	}
	return t
}

// runSteps executes up to n instructions, stopping early if the thread
// terminates. It returns a non-empty failure reason on replay failure.
func (t *vpThread) runSteps(n uint64) string {
	for i := uint64(0); i < n; i++ {
		if t.done {
			return ""
		}
		code := t.vp.exec.Prog.Code
		if t.cpu.PC < 0 || t.cpu.PC >= len(code) {
			return fmt.Sprintf("control flow left the program (pc %d)", t.cpu.PC)
		}
		ins := code[t.cpu.PC]
		// Synchronization instructions delimit regions. Reaching the
		// region's own closing sync is normal completion; reaching any
		// other sync means the path left the recorded region — the log
		// cannot answer for what lies beyond, so the replay fails (§4.2.1).
		if ins.Op.IsSync() && t.idx != t.region.StartIdx {
			if t.cpu.PC == t.closePC {
				t.done = true
				return ""
			}
			return fmt.Sprintf("diverged out of the region (hit %v at pc %d)", ins.Op, t.cpu.PC)
		}
		out, f := machine.Step(&t.cpu, code, t)
		if t.fail != "" {
			return t.fail
		}
		if f != nil {
			return fmt.Sprintf("fault during replay: %v", f)
		}
		switch out {
		case machine.StepHalt, machine.StepExited:
			t.idx++
			t.done = true
		case machine.StepBlocked:
			return "blocked inside virtual processor"
		default:
			t.idx++
		}
		// A region closed by the end of the recording (budget-exhausted
		// thread) has no closing sync; stop at the recorded boundary.
		if !t.done && t.closePC == -1 && t.log.EndReason == trace.EndRunning && t.idx >= t.region.EndIdx {
			t.done = true
			return ""
		}
	}
	return ""
}

// Load implements machine.Env with copy-on-read from live-in memory.
func (t *vpThread) Load(addr uint64, atomic bool, pc int) (uint64, *machine.Fault) {
	v := t.vp
	if addr < isa.NullGuardTop {
		return 0, &machine.Fault{Kind: machine.FaultNullAccess, PC: pc, Addr: addr}
	}
	if v.poisoned(addr) {
		return 0, &machine.Fault{Kind: machine.FaultUseAfterFree, PC: pc, Addr: addr}
	}
	if val, ok := v.local[addr]; ok {
		return val, nil
	}
	if val, ok := v.liveInFor(t.region, addr); ok {
		v.local[addr] = val
		return val, nil
	}
	if v.oracle != nil {
		// §4.2.1 extension: continue with the value memory held before
		// the earlier of the two regions ran.
		global := v.regA.Global
		if v.regB.Global < global {
			global = v.regB.Global
		}
		if val, ok := v.oracle.Before(addr, global); ok {
			v.local[addr] = val
			return val, nil
		}
	}
	t.fail = fmt.Sprintf("read of address 0x%x not captured in live-in memory", addr)
	return 0, &machine.Fault{Kind: machine.FaultInvalidOp, PC: pc, Addr: addr}
}

// Store implements machine.Env.
func (t *vpThread) Store(addr, val uint64, atomic bool, pc int) *machine.Fault {
	v := t.vp
	if addr < isa.NullGuardTop {
		return &machine.Fault{Kind: machine.FaultNullAccess, PC: pc, Addr: addr}
	}
	if v.poisoned(addr) {
		return &machine.Fault{Kind: machine.FaultUseAfterFree, PC: pc, Addr: addr}
	}
	v.local[addr] = val
	v.written[addr] = val
	return nil
}

// Lock implements machine.Env; region openers never block in a vproc.
func (t *vpThread) Lock(addr uint64, pc int) (bool, *machine.Fault) { return false, nil }

// Unlock implements machine.Env.
func (t *vpThread) Unlock(addr uint64, pc int) *machine.Fault { return nil }

// Syscall implements machine.Env. Only a region's opening instruction can
// be a syscall; its recorded result is injected so the replay stays on the
// recorded path. Allocation and free are additionally modeled locally so
// alternative orders reproduce heap faults.
func (t *vpThread) Syscall(cpu *machine.Cpu, num int64, pc int) (machine.SysOutcome, *machine.Fault) {
	v := t.vp
	switch num {
	case isa.SysExit:
		return machine.SysExited, nil
	case isa.SysPrint:
		v.output = append(v.output, int64(cpu.Regs[1]))
		return machine.SysDone, nil
	case isa.SysFree:
		base := cpu.Regs[1]
		size, ok := v.blocks[base]
		if ok {
			delete(v.blocks, base)
		} else if s, live := v.exec.BlockAt(base, v.heapEpoch); live && !v.freedBase(base) {
			size = s
			ok = true
		}
		if !ok {
			return machine.SysDone, &machine.Fault{Kind: machine.FaultBadFree, PC: pc, Addr: base}
		}
		for i := uint64(0); i < size; i++ {
			v.freed[base+i] = true
		}
		cpu.Regs[1] = 0
		return machine.SysDone, nil
	case isa.SysAlloc:
		n := cpu.Regs[1]
		if n == 0 {
			n = 1
		}
		base := v.vheapNext
		v.vheapNext += n
		v.blocks[base] = n
		for i := uint64(0); i < n; i++ {
			v.local[base+i] = 0
		}
		cpu.Regs[1] = base
		return machine.SysDone, nil
	case isa.SysYield, isa.SysNop:
		cpu.Regs[1] = 0
		return machine.SysDone, nil
	case isa.SysGettid:
		cpu.Regs[1] = uint64(t.region.TID)
		return machine.SysDone, nil
	}

	// rand / time / spawn / join: inject the recorded result if this is
	// the region's opening syscall; otherwise we have diverged into
	// behavior the log cannot answer for.
	if t.idx == t.region.StartIdx {
		for _, rec := range t.log.SysRets {
			if rec.Idx == t.idx {
				cpu.Regs[1] = rec.Res
				return machine.SysDone, nil
			}
		}
	}
	t.fail = fmt.Sprintf("unreplayable syscall %s at pc %d", isa.SyscallName(num), pc)
	return machine.SysDone, &machine.Fault{Kind: machine.FaultInvalidOp, PC: pc}
}

// freedBase reports whether base was already freed locally.
func (v *vp) freedBase(base uint64) bool { return v.freed[base] }
