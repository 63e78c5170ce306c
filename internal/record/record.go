// Package record implements the iDNA-style recorder: the machine's one
// observer, which builds self-contained per-thread replay logs while the
// program runs.
//
// The economy of the log comes from the predictability rule (iDNA's
// load-based checkpointing): the recorder keeps, per thread, the memory
// view that thread can reconstruct from its own loads and stores. A load
// is logged only when shared memory disagrees with that view — the first
// access to a location, or a location modified externally (another thread,
// or in iDNA's world a system call or DMA) since the thread last saw it.
// Everything else about the thread's execution is deterministic and is
// regenerated at replay time.
//
// Whatever else watches a recording rides on the recorder rather than
// beside it: the online race detector (hb.Online) is called after the
// recorder's own work on each event and answers the machine's stop
// polls, and the machine.* event counters are the recorder's own tallies,
// published at the end of the run.
package record

import (
	"math/bits"
	"slices"

	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// recorder builds a trace.Log from machine observer callbacks; run hands
// it (or its key-framing wrapper) to the machine as the run's observer.
type recorder struct {
	prog    *isa.Program
	seed    int64
	threads []*threadRec  // indexed by tid, which is also start order
	ended   []int         // tids in end order (ThreadEnded calls)
	online  *hb.Online    // nil without online detection
	metrics *obs.Registry // receives the counters at finish; nil is off

	// Event tallies, published at finish. The per-event path only bumps
	// plain ints, so recording with metrics off is unchanged.
	nLoads       uint64 // loads observed
	nLoadsLogged uint64 // loads the predictability rule had to log
	nStores      uint64
	nAtomics     uint64 // lock-prefixed loads and stores
	nSeqs        uint64
	nSysRets     uint64
}

type threadRec struct {
	log  *trace.ThreadLog
	view view
	done bool
}

const (
	viewPageShift = 6
	viewPageWords = 1 << viewPageShift
)

// view is the memory one thread can reconstruct from its own loads and
// stores: pages of 64 words, each with a mask of the words the thread
// knows, behind a one-page cache. Small pages keep a thread that
// touches a few scattered words small; the cache keeps a run of accesses
// to nearby words off the page map.
type view struct {
	pages  map[uint64]*viewPage
	lastPN uint64 // page number of last; ^0 matches no address
	last   *viewPage
}

type viewPage struct {
	known uint64 // bit i: the thread knows vals[i]
	vals  [viewPageWords]uint64
}

func newView() view {
	return view{pages: make(map[uint64]*viewPage), lastPN: ^uint64(0)}
}

// page returns the page holding addr, creating it if needed.
func (v *view) page(addr uint64) *viewPage {
	pn := addr >> viewPageShift
	if pn == v.lastPN {
		return v.last
	}
	p := v.pages[pn]
	if p == nil {
		p = new(viewPage)
		v.pages[pn] = p
	}
	v.lastPN, v.last = pn, p
	return p
}

// set records that the thread last saw val at addr, and reports whether
// it already knew that value there.
func (v *view) set(addr, val uint64) (knew bool) {
	p := v.page(addr)
	off := addr & (viewPageWords - 1)
	bit := uint64(1) << off
	if p.known&bit == 0 {
		p.known |= bit
	} else if p.vals[off] == val {
		return true
	}
	p.vals[off] = val
	return false
}

// entries lists the view in address order.
func (v *view) entries() []trace.LoadRec {
	pns := make([]uint64, 0, len(v.pages))
	for pn := range v.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	var out []trace.LoadRec
	for _, pn := range pns {
		p := v.pages[pn]
		for known := p.known; known != 0; known &= known - 1 {
			off := uint64(bits.TrailingZeros64(known))
			out = append(out, trace.LoadRec{Addr: pn<<viewPageShift | off, Val: p.vals[off]})
		}
	}
	return out
}

// ThreadStarted implements machine.Observer.
func (r *recorder) ThreadStarted(t *machine.Thread, startTS uint64) {
	tl := &trace.ThreadLog{
		TID:     t.ID,
		StartTS: startTS,
		InitPC:  t.Cpu.PC,
	}
	tl.InitRegs = t.Cpu.Regs
	tl.Seqs = append(tl.Seqs, trace.Sequencer{Idx: 0, TS: startTS, Kind: trace.SeqStart, Aux: -1})
	r.threads = append(r.threads, &threadRec{log: tl, view: newView()})
	if r.online != nil {
		r.online.ThreadStarted(t.ID, startTS)
	}
}

// Load implements machine.Observer, applying the predictability rule.
func (r *recorder) Load(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	tr := r.threads[tid]
	r.nLoads++
	if !tr.view.set(addr, val) {
		tr.log.Loads = append(tr.log.Loads, trace.LoadRec{Idx: idx, Addr: addr, Val: val})
		r.nLoadsLogged++
	}
	if atomic {
		r.nAtomics++
	}
	if r.online != nil {
		r.online.Access(tid, pc, addr, atomic, false)
	}
}

// Store implements machine.Observer.
func (r *recorder) Store(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	r.threads[tid].view.set(addr, val)
	r.nStores++
	if atomic {
		r.nAtomics++
	}
	if r.online != nil {
		r.online.Access(tid, pc, addr, atomic, true)
	}
}

// Sequencer implements machine.Observer.
func (r *recorder) Sequencer(tid int, idx uint64, ts uint64, op isa.Op, sysNum int64) {
	tr := r.threads[tid]
	aux := int64(-1)
	kind := trace.KindForOp(op)
	if kind == trace.SeqSyscall {
		aux = sysNum
	}
	tr.log.Seqs = append(tr.log.Seqs, trace.Sequencer{Idx: idx, TS: ts, Kind: kind, Aux: aux})
	r.nSeqs++
	if r.online != nil {
		r.online.Sequencer(tid, ts)
	}
}

// SyscallRet implements machine.Observer.
func (r *recorder) SyscallRet(tid int, idx uint64, r0 uint64) {
	tr := r.threads[tid]
	tr.log.SysRets = append(tr.log.SysRets, trace.SysRec{Idx: idx, Res: r0})
	r.nSysRets++
}

// StopRequested implements machine.Stopper: a stop-on-race online
// detector has seen a race.
func (r *recorder) StopRequested() bool { return r.online != nil && r.online.StopRequested() }

// ThreadEnded implements machine.Observer.
func (r *recorder) ThreadEnded(t *machine.Thread, endTS uint64) {
	tr := r.threads[t.ID]
	tl := tr.log
	tl.EndTS = endTS
	tl.Retired = t.Retired
	tl.ExitCode = t.ExitCode
	switch t.State {
	case machine.Halted:
		tl.EndReason = trace.EndHalted
	case machine.Exited:
		tl.EndReason = trace.EndExited
	case machine.Faulted:
		tl.EndReason = trace.EndFaulted
		tl.Fault = &trace.FaultRec{Kind: int(t.Fault.Kind), PC: t.Fault.PC, Addr: t.Fault.Addr}
	default:
		tl.EndReason = trace.EndRunning
	}
	tl.Seqs = append(tl.Seqs, trace.Sequencer{Idx: t.Retired, TS: endTS, Kind: trace.SeqEnd, Aux: -1})
	tr.done = true
	r.ended = append(r.ended, t.ID)
	if r.online != nil {
		r.online.ThreadEnded(t.ID, endTS)
	}
}

// finish assembles the trace.Log after the machine run completes. Threads
// still live at budget exhaustion get a synthetic SeqEnd past the final
// clock so their last region is closed.
func (r *recorder) finish(res *machine.Result) *trace.Log {
	log := &trace.Log{
		Prog:       r.prog,
		Seed:       r.seed,
		FinalClock: res.FinalClock,
		TotalSteps: res.TotalSteps,
		Deadlocked: res.Deadlocked,
	}
	extraTS := res.FinalClock
	for tid, tr := range r.threads {
		if !tr.done {
			mt := res.Threads[tid]
			extraTS++
			tr.log.Retired = mt.Retired
			tr.log.EndTS = extraTS
			tr.log.EndReason = trace.EndRunning
			tr.log.Seqs = append(tr.log.Seqs, trace.Sequencer{
				Idx: mt.Retired, TS: extraTS, Kind: trace.SeqEnd, Aux: -1,
			})
			tr.done = true
		}
		log.Threads = append(log.Threads, tr.log)
	}
	r.publishMetrics(res)
	return log
}

// publishMetrics flushes the recorder's event tallies into the registry
// (no-op without one). The loads split is the predictability rule's
// effectiveness: loads_predicted were reconstructed from the thread's
// own view and cost zero log bytes. The recorder sees the machine's
// whole event stream, so the record.* event counters are also the
// machine's; the machine.* family holds only what the log does not
// count (atomic ops, ended threads), and the per-thread instruction
// histogram takes its samples in end order.
func (r *recorder) publishMetrics(res *machine.Result) {
	reg := r.metrics
	if reg == nil {
		return
	}
	reg.Counter("machine.atomic_ops").Add(r.nAtomics)
	reg.Counter("machine.threads_ended").Add(uint64(len(r.ended)))
	perThread := reg.Histogram("machine.instructions_per_thread")
	for _, tid := range r.ended {
		perThread.Observe(int(r.threads[tid].log.Retired))
	}
	reg.Counter("record.instructions").Add(res.TotalSteps)
	reg.Counter("record.threads").Add(uint64(len(r.threads)))
	reg.Counter("record.loads_total").Add(r.nLoads)
	reg.Counter("record.loads_logged").Add(r.nLoadsLogged)
	reg.Counter("record.loads_predicted").Add(r.nLoads - r.nLoadsLogged)
	reg.Counter("record.stores").Add(r.nStores)
	reg.Counter("record.sequencers").Add(r.nSeqs)
	reg.Counter("record.syscall_returns").Add(r.nSysRets)
}

// keyFramer is a recorder that also drops a key frame into each thread's
// log every interval retired instructions — iDNA's mid-log resume points,
// enabling replay.ThreadStateAt to answer per-thread state queries
// without replaying from instruction zero. The frames depend only on the
// execution, never on the online detector's verdict.
type keyFramer struct {
	*recorder
	interval uint64
}

// AfterRetire implements machine.KeyFramer.
func (r *keyFramer) AfterRetire(t *machine.Thread) {
	if t.Retired%r.interval != 0 {
		return
	}
	tr := r.threads[t.ID]
	kf := trace.KeyFrame{Idx: t.Retired, PC: t.Cpu.PC, View: tr.view.entries()}
	kf.Regs = t.Cpu.Regs
	tr.log.KeyFrames = append(tr.log.KeyFrames, kf)
}

// Run records one full execution of prog under cfg (cfg.Observer is
// overwritten). It returns the replay log and the machine result.
func Run(prog *isa.Program, cfg machine.Config) (*trace.Log, *machine.Result, error) {
	log, res, _, err := run(prog, cfg, OnlineConfig{}, nil)
	return log, res, err
}

// RunInstrumented is Run with stage metrics published into reg (nil is
// off); see RunOnlineInstrumented.
func RunInstrumented(prog *isa.Program, cfg machine.Config, reg *obs.Registry) (*trace.Log, *machine.Result, error) {
	log, res, _, err := run(prog, cfg, OnlineConfig{}, reg)
	return log, res, err
}

// run is the one recording body. The recorder is the machine's only
// observer: a key-framer when oc.KeyFrameInterval > 0, holding the
// hb.Online detector when oc.Detect is set, which it feeds after its own
// work on each event and asks whether to stop.
//
// With reg set, the run is timed under a "record" span and the recorder
// publishes its record.* and machine.* counters; nothing else is paid
// for the registry. The log's size is the caller's to measure
// (trace.Stats), since measuring it serializes and deflates the log.
func run(prog *isa.Program, cfg machine.Config, oc OnlineConfig, reg *obs.Registry) (*trace.Log, *machine.Result, *hb.OnlineReport, error) {
	sp := reg.StartSpan("record")
	rec := &recorder{prog: prog, seed: cfg.Seed, metrics: reg}
	if oc.Detect {
		rec.online = hb.NewOnline(prog, reg, oc.StopOnFirstRace)
	}
	cfg.Observer = rec
	if oc.KeyFrameInterval > 0 {
		cfg.Observer = &keyFramer{recorder: rec, interval: oc.KeyFrameInterval}
	}
	m, err := machine.New(prog, cfg)
	if err != nil {
		sp.End()
		return nil, nil, nil, err
	}
	res := m.Run()
	log := rec.finish(res)
	var rep *hb.OnlineReport
	if rec.online != nil {
		rep = rec.online.Report(res.Stopped)
	}
	sp.End()
	if err := log.Validate(); err != nil {
		return nil, nil, nil, err
	}
	reg.Counter("record.executions").Inc()
	return log, res, rep, nil
}
