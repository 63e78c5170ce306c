// Package replay re-executes a recorded program from its trace.Log.
//
// Each thread is replayed purely from its own ThreadLog: the interpreter
// runs the real code, and whenever it reaches an instruction index that
// has a logged load or syscall result, the logged value is injected. A
// thread's replay is therefore exact regardless of what other threads did.
//
// To reconstruct the global picture, replay processes one sequencing
// region at a time, in the order of the regions' starting sequencer
// timestamps — exactly the iDNA replayer's schedule. Along the way it
// records, for every region, the register state at region entry and
// every data access. Those are the inputs the happens-before detector and
// the classification virtual processor consume. The execution's memory
// history (Execution.Memory), built from the accesses on first use, is
// its one per-address index: the detectors' conflict search, a region's
// live-ins, the §4.2.1 oracle, and time travel all read it.
package replay

import (
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Access is one data-memory access observed during replay.
type Access struct {
	TID     int
	Idx     uint64 // thread-local instruction index
	PC      int
	Addr    uint64
	Val     uint64 // value loaded or stored
	IsWrite bool
	Atomic  bool // performed by a lock-prefixed instruction

	slot int32 // Addr's slot in the memory index, in the padding after the flags
}

// Site returns the stable static identity of the access.
func (a Access) Site(prog *isa.Program) string { return prog.SiteOf(a.PC) }

// Region is one sequencing region: the instructions a thread executed
// between two consecutive sequencers.
type Region struct {
	TID     int
	Ordinal int // region index within its thread
	Global  int // index into Execution.Regions (schedule order)

	StartTS, EndTS   uint64 // sequencer timestamps bounding the region
	StartIdx, EndIdx uint64 // instruction index range [StartIdx, EndIdx)
	StartKind        trace.SeqKind
	EndKind          trace.SeqKind

	StartCpu  machine.Cpu // architectural state at region entry
	Accesses  []Access    // data accesses, in execution order
	HeapEpoch int         // heap events applied before this region ran

	// Annotations for the opening synchronization instruction (the one
	// whose sequencer starts this region), filled in during replay.
	SyncAddr     uint64 // effective address of an opening lock/unlock/atomic
	StartSyscall int64  // opening syscall number, -1 otherwise
	SpawnChild   int    // tid created when the opening syscall is spawn, else -1
	JoinTarget   int    // tid joined when the opening syscall is join, else -1
}

// Overlaps reports whether two regions' timestamp intervals intersect —
// the paper's happens-before test: no sequencer orders the two regions.
func (r *Region) Overlaps(o *Region) bool {
	return r.TID != o.TID && r.StartTS < o.EndTS && o.StartTS < r.EndTS
}

// HeapEventKind tags entries of the global heap event list.
type HeapEventKind uint8

const (
	HeapAlloc HeapEventKind = iota
	HeapFree
)

// HeapEvent is one allocation-lifecycle event, in region-schedule order.
type HeapEvent struct {
	Kind HeapEventKind
	Base uint64
	Size uint64
}

// ThreadReplay is the per-thread outcome of a replay.
type ThreadReplay struct {
	TID       int
	FinalCpu  machine.Cpu
	Output    []int64
	Regions   []*Region
	EndReason trace.EndReason
	ExitCode  uint64
}

// Execution is the fully replayed run.
type Execution struct {
	Log        *trace.Log
	Prog       *isa.Program
	Threads    []*ThreadReplay
	Regions    []*Region // all regions in schedule (start-timestamp) order
	HeapEvents []HeapEvent

	slots   slotTable // every accessed address's index slot, assigned by Run
	memOnce sync.Once
	mem     *VersionedMemory
}

// Memory returns the execution's memory history, its one per-address
// index, built on first use by whichever caller asks first. It is safe
// for concurrent use. The index relies on each Region.Global being the
// region's position in Regions and on the address slots Run gave the
// accesses, and on nothing editing the regions' accesses after Run.
func (e *Execution) Memory() *VersionedMemory {
	e.memOnce.Do(func() { e.mem = buildVersionedMemory(e.Regions, &e.slots) })
	return e.mem
}

// Thread returns the replay of tid, or nil.
func (e *Execution) Thread(tid int) *ThreadReplay {
	for _, t := range e.Threads {
		if t.TID == tid {
			return t
		}
	}
	return nil
}

// PoisonedAt reports whether addr belongs to a freed block as of heap
// epoch (the classifier uses this to reproduce use-after-free faults).
func (e *Execution) PoisonedAt(addr uint64, epoch int) bool {
	poisoned := false
	for i := 0; i < epoch && i < len(e.HeapEvents); i++ {
		ev := e.HeapEvents[i]
		if addr >= ev.Base && addr < ev.Base+ev.Size {
			poisoned = ev.Kind == HeapFree
		}
	}
	return poisoned
}

// BlockAt returns the live allocation covering base exactly as of epoch.
func (e *Execution) BlockAt(base uint64, epoch int) (uint64, bool) {
	size, live := uint64(0), false
	for i := 0; i < epoch && i < len(e.HeapEvents); i++ {
		ev := e.HeapEvents[i]
		if ev.Base == base {
			live = ev.Kind == HeapAlloc
			size = ev.Size
		}
	}
	if !live {
		return 0, false
	}
	return size, true
}

// Options tunes a replay.
type Options struct {
	// Metrics, when set, receives the replay stage counters (regions
	// replayed, instructions re-executed, injected loads and syscall
	// results). Nil costs nothing on the hot path.
	Metrics *obs.Registry
}

// Run replays log completely. It fails if the log is internally
// inconsistent (corrupt, truncated, or not produced by the recorder).
func Run(log *trace.Log, opts Options) (*Execution, error) {
	if err := log.Validate(); err != nil {
		return nil, err
	}
	exec := &Execution{Log: log, Prog: log.Prog}
	exec.slots.pages = make(map[uint64]*slotPage)
	st := &replayState{exec: exec, slots: &exec.slots, blocks: make(map[uint64]uint64)}

	// Build the thread replayers and carve their region lists. The
	// replayers, their results, the Region structs and the region
	// pointers each come from one block allocation; the blocks are never
	// resized, so pointers into them stay valid for the life of the
	// execution.
	total := 0
	for _, tl := range log.Threads {
		total += len(tl.Seqs) - 1
		st.left += float64(tl.Retired)
	}
	replayers := make([]threadReplayer, len(log.Threads))
	results := make([]ThreadReplay, len(log.Threads))
	block := make([]Region, total)
	ptrs := make([]*Region, total)
	exec.Threads = make([]*ThreadReplay, len(log.Threads))
	sched := make(schedule, len(log.Threads))
	for i, tl := range log.Threads {
		tr := &replayers[i]
		tr.init(st, tl, &results[i], opts.Metrics)
		n := len(tl.Seqs) - 1
		tr.result.Regions = carveRegions(tl, block[:n:n], ptrs[:n:n])
		block, ptrs = block[n:], ptrs[n:]
		exec.Threads[i] = tr.result
		sched[i] = tr
	}
	cRegions := opts.Metrics.Counter("replay.regions")
	opts.Metrics.Counter("replay.executions").Inc()
	opts.Metrics.Counter("replay.threads").Add(uint64(len(log.Threads)))
	opts.Metrics.Emit("replay.regions", uint64(total))

	// Replay the schedule one region at a time: regions ordered by
	// starting sequencer timestamp. The only possible tie is between a
	// parent's post-spawn region and the child's first region (both
	// anchored at the spawn sequencer); the child goes first, since
	// conceptually it exists from the instant of the spawn. Each thread's
	// regions are already in that order (Validate requires strictly
	// increasing timestamps per thread), so the schedule is a merge of
	// the threads' lists: sched is a heap of the threads with regions
	// left, ordered by their next region.
	exec.Regions = make([]*Region, 0, total)
	sched.init()
	for len(sched) > 0 {
		tr := sched[0]
		region := tr.result.Regions[tr.next]
		if tr.next++; tr.next == len(tr.result.Regions) {
			sched.pop()
		} else {
			sched.down(0)
		}
		cRegions.Add(1)
		region.Global = len(exec.Regions)
		exec.Regions = append(exec.Regions, region)
		region.HeapEpoch = len(exec.HeapEvents)
		if err := tr.runRegion(region); err != nil {
			return nil, err
		}
	}

	// Every thread must have consumed its whole log.
	for i := range replayers {
		tr := &replayers[i]
		if tr.idx != tr.log.Retired {
			return nil, fmt.Errorf("replay: thread %d stopped at %d of %d instructions",
				tr.log.TID, tr.idx, tr.log.Retired)
		}
	}
	return exec, nil
}

// carveRegions fills block with tl's regions and ptrs with pointers to
// them: region k spans [seq[k].Idx, seq[k+1].Idx) and
// [seq[k].TS, seq[k+1].TS).
func carveRegions(tl *trace.ThreadLog, block []Region, ptrs []*Region) []*Region {
	seqs := tl.Seqs
	for k := range block {
		block[k] = Region{
			TID:          tl.TID,
			Ordinal:      k,
			StartTS:      seqs[k].TS,
			EndTS:        seqs[k+1].TS,
			StartIdx:     seqs[k].Idx,
			EndIdx:       seqs[k+1].Idx,
			StartKind:    seqs[k].Kind,
			EndKind:      seqs[k+1].Kind,
			StartSyscall: -1,
			SpawnChild:   -1,
			JoinTarget:   -1,
		}
		ptrs[k] = &block[k]
	}
	return ptrs
}

// schedule is a min-heap of thread replayers, ordered by each one's next
// region.
type schedule []*threadReplayer

// less reports whether thread i's next region comes before thread j's:
// by starting timestamp, then a thread's first region (SeqStart) before
// another's region opened by the same spawn sequencer, then by thread.
func (s schedule) less(i, j int) bool {
	a, b := s[i].result.Regions[s[i].next], s[j].result.Regions[s[j].next]
	if a.StartTS != b.StartTS {
		return a.StartTS < b.StartTS
	}
	if a.StartKind != b.StartKind {
		return a.StartKind == trace.SeqStart
	}
	return a.TID < b.TID
}

func (s schedule) init() {
	for i := len(s)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

// down restores the heap below i after s[i] moved later.
func (s schedule) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(s) {
			return
		}
		if r := m + 1; r < len(s) && s.less(r, m) {
			m = r
		}
		if !s.less(m, i) {
			return
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// pop removes the heap's first thread.
func (s *schedule) pop() {
	h := *s
	h[0] = h[len(h)-1]
	*s = h[:len(h)-1]
	s.down(0)
}

// Chunk bounds, in accesses.
const (
	minChunk = 16
	maxChunk = 1 << 14
)

// replayState is what a replay's thread replayers share.
//
// Accesses are appended in schedule order into shared chunks, and each
// region gets a capped subslice of one: no per-region allocation, and no
// copy unless a region outgrows its chunk and moves to a new one. Each
// chunk is sized for the rest of the replay at the access rate seen so
// far, so a small replay allocates about what it uses.
type replayState struct {
	exec   *Execution
	slots  *slotTable        // exec's slots, nil in ThreadStateAt, which collects no accesses
	blocks map[uint64]uint64 // live heap blocks, base -> size

	chunk  []Access // the current chunk
	start  int      // where the running region's accesses begin in chunk
	carved float64  // accesses handed to finished regions
	done   float64  // instructions of finished regions
	left   float64  // instructions not yet replayed
}

// grow moves the running region's accesses into a new chunk with room
// for the instructions left at the access rate seen so far and a
// sixteenth more, and at least twice what it moves. Before any region has
// run, the rate is one access in five instructions, about what every
// workload here makes.
func (st *replayState) grow() {
	moved := st.chunk[st.start:]
	n := min(st.left*(st.carved+1)/(st.done+5)*17/16, maxChunk)
	chunk := make([]Access, len(moved), max(int(n), minChunk, 2*len(moved)))
	copy(chunk, moved)
	st.chunk, st.start = chunk, 0
}

// finish hands a finished region its accesses.
func (st *replayState) finish(region *Region) {
	end, n := len(st.chunk), float64(region.EndIdx-region.StartIdx)
	region.Accesses = st.chunk[st.start:end:end]
	st.start = end
	st.carved += float64(len(region.Accesses))
	st.done += n
	st.left -= n
}

// threadReplayer replays one thread from its log.
type threadReplayer struct {
	st   *replayState
	prog *isa.Program
	log  *trace.ThreadLog

	cpu  *machine.Cpu // the thread's state: result.FinalCpu, final once the thread is done
	view view         // the thread's replayed memory view
	idx  uint64       // next instruction index to execute
	next int          // index into result.Regions of the next region to run

	loadPtr int
	sysPtr  int

	cur    *Region // region currently being replayed
	result *ThreadReplay
	err    error

	// Stage counters, nil when the replay is uninstrumented.
	cInstr   *obs.Counter // replay.instructions
	cLoadInj *obs.Counter // replay.loads_injected
	cSysInj  *obs.Counter // replay.sysrets_injected
}

// init sets tr up to replay tl from its start into result, counting on
// reg (nil is off).
func (tr *threadReplayer) init(st *replayState, tl *trace.ThreadLog, result *ThreadReplay, reg *obs.Registry) {
	*result = ThreadReplay{
		TID:       tl.TID,
		FinalCpu:  machine.Cpu{PC: tl.InitPC, Regs: tl.InitRegs},
		EndReason: tl.EndReason,
		ExitCode:  tl.ExitCode,
	}
	*tr = threadReplayer{
		st:       st,
		prog:     st.exec.Prog,
		log:      tl,
		cpu:      &result.FinalCpu,
		view:     newView(st.slots),
		result:   result,
		cInstr:   reg.Counter("replay.instructions"),
		cLoadInj: reg.Counter("replay.loads_injected"),
		cSysInj:  reg.Counter("replay.sysrets_injected"),
	}
}

// runRegion replays region's instruction range on this thread.
func (tr *threadReplayer) runRegion(region *Region) error {
	if region.StartIdx != tr.idx {
		return fmt.Errorf("replay: thread %d region %d starts at %d, replay is at %d",
			tr.log.TID, region.Ordinal, region.StartIdx, tr.idx)
	}
	region.StartCpu = *tr.cpu
	tr.cur = region
	for tr.idx < region.EndIdx {
		out, f := machine.Step(tr.cpu, tr.prog.Code, tr)
		if tr.err != nil {
			return tr.err
		}
		if f != nil {
			return fmt.Errorf("replay: thread %d faulted at idx %d during replay (%v); log inconsistent",
				tr.log.TID, tr.idx, f)
		}
		switch out {
		case machine.StepBlocked:
			return fmt.Errorf("replay: thread %d blocked at idx %d; replay must never block", tr.log.TID, tr.idx)
		case machine.StepHalt, machine.StepExited, machine.StepContinue:
			tr.idx++
		}
	}
	tr.cInstr.Add(region.EndIdx - region.StartIdx)
	tr.st.finish(region)
	tr.cur = nil
	return nil
}

// record appends an access to the running region, with its address's
// slot, which the access's view page p points at (a page has slots
// exactly when the replay collects accesses).
func (tr *threadReplayer) record(p *viewPage, a Access) {
	if p.slots == nil {
		return
	}
	st := tr.st
	s := &p.slots[a.Addr&pageMask]
	if *s == 0 {
		st.slots.n++
		*s = st.slots.n
	}
	a.slot = *s - 1
	if len(st.chunk) == cap(st.chunk) {
		st.grow()
	}
	st.chunk = append(st.chunk, a)
}

// Load implements machine.Env with logged-value injection.
func (tr *threadReplayer) Load(addr uint64, atomic bool, pc int) (uint64, *machine.Fault) {
	if atomic {
		tr.annotateOpening(addr)
	}
	if tr.loadPtr < len(tr.log.Loads) {
		if rec := &tr.log.Loads[tr.loadPtr]; rec.Idx == tr.idx && rec.Addr == addr {
			tr.loadPtr++
			tr.cLoadInj.Add(1)
			tr.record(tr.view.set(addr, rec.Val), Access{TID: tr.log.TID, Idx: tr.idx, PC: pc, Addr: addr, Val: rec.Val, Atomic: atomic})
			return rec.Val, nil
		}
	}
	p := tr.view.page(addr)
	if p.known&(1<<(addr&pageMask)) == 0 {
		tr.err = fmt.Errorf("replay: thread %d idx %d loads unlogged address 0x%x",
			tr.log.TID, tr.idx, addr)
		return 0, &machine.Fault{Kind: machine.FaultInvalidOp, PC: pc, Addr: addr}
	}
	v := p.vals[addr&pageMask]
	tr.record(p, Access{TID: tr.log.TID, Idx: tr.idx, PC: pc, Addr: addr, Val: v, Atomic: atomic})
	return v, nil
}

// Store implements machine.Env.
func (tr *threadReplayer) Store(addr, val uint64, atomic bool, pc int) *machine.Fault {
	tr.record(tr.view.set(addr, val), Access{TID: tr.log.TID, Idx: tr.idx, PC: pc, Addr: addr, Val: val, IsWrite: true, Atomic: atomic})
	return nil
}

// annotateOpening records the opening sync instruction's effective
// address when the current instruction is the one that starts the region.
func (tr *threadReplayer) annotateOpening(addr uint64) {
	if tr.cur != nil && tr.idx == tr.cur.StartIdx {
		tr.cur.SyncAddr = addr
	}
}

// Lock implements machine.Env; replay never blocks because the region
// schedule already encodes the original acquisition order.
func (tr *threadReplayer) Lock(addr uint64, pc int) (bool, *machine.Fault) {
	tr.annotateOpening(addr)
	return false, nil
}

// Unlock implements machine.Env.
func (tr *threadReplayer) Unlock(addr uint64, pc int) *machine.Fault {
	tr.annotateOpening(addr)
	return nil
}

// Syscall implements machine.Env by injecting the recorded result instead
// of consulting a kernel.
func (tr *threadReplayer) Syscall(cpu *machine.Cpu, num int64, pc int) (machine.SysOutcome, *machine.Fault) {
	if tr.cur != nil && tr.idx == tr.cur.StartIdx {
		tr.cur.StartSyscall = num
	}
	switch num {
	case isa.SysExit:
		return machine.SysExited, nil
	case isa.SysPrint:
		tr.result.Output = append(tr.result.Output, int64(cpu.Regs[1]))
	}
	// All non-exit syscalls logged a result; inject it.
	if tr.sysPtr >= len(tr.log.SysRets) || tr.log.SysRets[tr.sysPtr].Idx != tr.idx {
		tr.err = fmt.Errorf("replay: thread %d idx %d missing syscall result for %s",
			tr.log.TID, tr.idx, isa.SyscallName(num))
		return machine.SysDone, &machine.Fault{Kind: machine.FaultInvalidOp, PC: pc}
	}
	rec := tr.log.SysRets[tr.sysPtr]
	tr.sysPtr++
	tr.cSysInj.Add(1)

	// Mirror heap effects into the global event list (schedule order) and
	// finish the opening-syscall annotations that need the result. The
	// live-block map answers a free as BlockAt would at this epoch: the
	// last event at the base decides.
	exec := tr.st.exec
	switch num {
	case isa.SysAlloc:
		size := max(cpu.Regs[1], 1)
		tr.st.blocks[rec.Res] = size
		exec.HeapEvents = append(exec.HeapEvents, HeapEvent{Kind: HeapAlloc, Base: rec.Res, Size: size})
	case isa.SysFree:
		base := cpu.Regs[1]
		if size, ok := tr.st.blocks[base]; ok {
			delete(tr.st.blocks, base)
			exec.HeapEvents = append(exec.HeapEvents, HeapEvent{Kind: HeapFree, Base: base, Size: size})
		}
	case isa.SysSpawn:
		if tr.cur != nil && tr.idx == tr.cur.StartIdx {
			tr.cur.SpawnChild = int(int64(rec.Res))
		}
	case isa.SysJoin:
		if tr.cur != nil && tr.idx == tr.cur.StartIdx {
			tr.cur.JoinTarget = int(int64(cpu.Regs[1]))
		}
	}
	cpu.Regs[1] = rec.Res
	return machine.SysDone, nil
}
