// Package record implements the iDNA-style recorder: a machine.Observer
// that builds self-contained per-thread replay logs while the program runs.
//
// The economy of the log comes from the predictability rule (iDNA's
// load-based checkpointing): the recorder keeps, per thread, the memory
// view that thread can reconstruct from its own loads and stores. A load
// is logged only when shared memory disagrees with that view — the first
// access to a location, or a location modified externally (another thread,
// or in iDNA's world a system call or DMA) since the thread last saw it.
// Everything else about the thread's execution is deterministic and is
// regenerated at replay time.
package record

import (
	"sort"

	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Recorder builds a trace.Log from machine observer callbacks. Use Run for
// the common record-a-whole-program case.
type Recorder struct {
	prog    *isa.Program
	seed    int64
	threads map[int]*threadRec
	order   []int // tids in start order

	// Metrics, when set, receives the recorder's stage counters at
	// Finish (loads logged vs. predicted, sequencers, stores). The
	// per-event path only bumps plain ints, so recording with metrics
	// off is unchanged.
	Metrics *obs.Registry

	nLoads       uint64 // loads observed
	nLoadsLogged uint64 // loads the predictability rule had to log
	nStores      uint64
	nSeqs        uint64
	nSysRets     uint64
}

type threadRec struct {
	log  *trace.ThreadLog
	view map[uint64]uint64
	done bool
}

// New returns a Recorder for prog; pass it as machine.Config.Observer.
func New(prog *isa.Program, seed int64) *Recorder {
	return &Recorder{
		prog:    prog,
		seed:    seed,
		threads: make(map[int]*threadRec),
	}
}

// ThreadStarted implements machine.Observer.
func (r *Recorder) ThreadStarted(t *machine.Thread, startTS uint64) {
	tl := &trace.ThreadLog{
		TID:     t.ID,
		StartTS: startTS,
		InitPC:  t.Cpu.PC,
	}
	tl.InitRegs = t.Cpu.Regs
	tl.Seqs = append(tl.Seqs, trace.Sequencer{Idx: 0, TS: startTS, Kind: trace.SeqStart, Aux: -1})
	r.threads[t.ID] = &threadRec{log: tl, view: make(map[uint64]uint64)}
	r.order = append(r.order, t.ID)
}

// Load implements machine.Observer, applying the predictability rule.
func (r *Recorder) Load(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	tr := r.threads[tid]
	r.nLoads++
	if v, known := tr.view[addr]; !known || v != val {
		tr.log.Loads = append(tr.log.Loads, trace.LoadRec{Idx: idx, Addr: addr, Val: val})
		r.nLoadsLogged++
	}
	tr.view[addr] = val
}

// Store implements machine.Observer.
func (r *Recorder) Store(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	r.threads[tid].view[addr] = val
	r.nStores++
}

// Sequencer implements machine.Observer.
func (r *Recorder) Sequencer(tid int, idx uint64, ts uint64, op isa.Op, sysNum int64) {
	tr := r.threads[tid]
	aux := int64(-1)
	kind := trace.KindForOp(op)
	if kind == trace.SeqSyscall {
		aux = sysNum
	}
	tr.log.Seqs = append(tr.log.Seqs, trace.Sequencer{Idx: idx, TS: ts, Kind: kind, Aux: aux})
	r.nSeqs++
}

// SyscallRet implements machine.Observer.
func (r *Recorder) SyscallRet(tid int, idx uint64, r0 uint64) {
	tr := r.threads[tid]
	tr.log.SysRets = append(tr.log.SysRets, trace.SysRec{Idx: idx, Res: r0})
	r.nSysRets++
}

// ThreadEnded implements machine.Observer.
func (r *Recorder) ThreadEnded(t *machine.Thread, endTS uint64) {
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
}

// Finish assembles the trace.Log after the machine run completes. Threads
// still live at budget exhaustion get a synthetic SeqEnd past the final
// clock so their last region is closed.
func (r *Recorder) Finish(res *machine.Result) *trace.Log {
	log := &trace.Log{
		Prog:       r.prog,
		Seed:       r.seed,
		FinalClock: res.FinalClock,
		TotalSteps: res.TotalSteps,
		Deadlocked: res.Deadlocked,
	}
	extraTS := res.FinalClock
	for _, tid := range r.order {
		tr := r.threads[tid]
		if !tr.done {
			var mt *machine.Thread
			for _, t := range res.Threads {
				if t.ID == tid {
					mt = t
					break
				}
			}
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
// own view and cost zero log bytes.
func (r *Recorder) publishMetrics(res *machine.Result) {
	reg := r.Metrics
	if reg == nil {
		return
	}
	reg.Counter("record.instructions").Add(res.TotalSteps)
	reg.Counter("record.threads").Add(uint64(len(r.order)))
	reg.Counter("record.loads_total").Add(r.nLoads)
	reg.Counter("record.loads_logged").Add(r.nLoadsLogged)
	reg.Counter("record.loads_predicted").Add(r.nLoads - r.nLoadsLogged)
	reg.Counter("record.stores").Add(r.nStores)
	reg.Counter("record.sequencers").Add(r.nSeqs)
	reg.Counter("record.syscall_returns").Add(r.nSysRets)
	if r.nLoads > 0 {
		reg.Gauge("record.load_log_ratio").Set(float64(r.nLoadsLogged) / float64(r.nLoads))
	}
}

// keyFramer is a Recorder that also drops a key frame into each thread's
// log every interval retired instructions — iDNA's mid-log resume points,
// enabling replay.ThreadStateAt to answer per-thread state queries
// without replaying from instruction zero. When an online detector rides
// along, the interval widens by DownsampleFactor the first time it
// confirms a race.
type keyFramer struct {
	*Recorder
	interval    uint64
	online      *hb.Online // nil without online detection
	downsampled bool
}

// AfterRetire implements machine.KeyFramer.
func (r *keyFramer) AfterRetire(t *machine.Thread) {
	if r.online != nil && !r.downsampled && r.online.Raced() {
		r.interval *= DownsampleFactor
		r.downsampled = true
		r.Metrics.Counter("record.keyframes.downsampled").Inc()
	}
	if t.Retired%r.interval != 0 {
		return
	}
	tr := r.threads[t.ID]
	view := make([]trace.LoadRec, 0, len(tr.view))
	for addr, val := range tr.view {
		view = append(view, trace.LoadRec{Addr: addr, Val: val})
	}
	sort.Slice(view, func(i, j int) bool { return view[i].Addr < view[j].Addr })
	kf := trace.KeyFrame{Idx: t.Retired, PC: t.Cpu.PC, View: view}
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

// run is the one recording body. A single execution feeds a set of
// observers: the recorder (a key-framer when oc.KeyFrameInterval > 0),
// the hb.Online detector when oc.Detect is set, and a
// machine.MetricsObserver when reg is non-nil. NewMultiObserver drops the
// absent ones and unwraps a lone observer, so a plain recording hands the
// machine the bare *Recorder and pays no fan-out.
//
// With reg set, the run is timed under a "record" span, the recorder
// publishes its counters, and the log's size is reported as the paper's
// bits/instruction gauges. The size measurement compresses the log, which
// is bookkeeping rather than recording, so it happens after the span
// ends.
func run(prog *isa.Program, cfg machine.Config, oc OnlineConfig, reg *obs.Registry) (*trace.Log, *machine.Result, *hb.OnlineReport, error) {
	sp := reg.StartSpan("record")
	rec := New(prog, cfg.Seed)
	rec.Metrics = reg
	var online *hb.Online
	observers := []machine.Observer{rec}
	if oc.Detect {
		online = hb.NewOnline(prog, reg, oc.StopOnFirstRace)
		observers = append(observers, online)
	}
	if oc.KeyFrameInterval > 0 {
		observers[0] = &keyFramer{Recorder: rec, interval: oc.KeyFrameInterval, online: online}
	}
	if reg != nil {
		observers = append(observers, machine.NewMetricsObserver(reg))
	}
	cfg.Observer = machine.NewMultiObserver(observers...)
	m, err := machine.New(prog, cfg)
	if err != nil {
		sp.End()
		return nil, nil, nil, err
	}
	res := m.Run()
	log := rec.Finish(res)
	var rep *hb.OnlineReport
	if online != nil {
		rep = online.Report(res.Stopped)
		log.Online = online.Info(res.Stopped)
	}
	sp.End()
	if err := log.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if reg != nil {
		st := trace.Stats(log)
		reg.Gauge("record.bits_per_instr_raw").Set(st.RawBitsPerInstr())
		reg.Gauge("record.bits_per_instr_compressed").Set(st.CompressedBitsPerInstr())
		reg.Counter("record.log_bytes_raw").Add(uint64(st.RawBytes))
		reg.Counter("record.log_bytes_compressed").Add(uint64(st.CompressedBytes))
		reg.Counter("record.executions").Inc()
	}
	return log, res, rep, nil
}
