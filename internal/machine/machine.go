package machine

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
)

// ThreadState is the lifecycle state of an RVM thread.
type ThreadState int

const (
	Runnable ThreadState = iota
	BlockedLock
	BlockedJoin
	Halted  // retired OpHalt
	Exited  // retired sys exit
	Faulted // crashed
)

func (s ThreadState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case BlockedLock:
		return "blocked-lock"
	case BlockedJoin:
		return "blocked-join"
	case Halted:
		return "halted"
	case Exited:
		return "exited"
	case Faulted:
		return "faulted"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminated reports whether the thread will never run again.
func (s ThreadState) Terminated() bool {
	return s == Halted || s == Exited || s == Faulted
}

// Thread is one RVM thread: architectural state plus scheduling metadata.
type Thread struct {
	ID       int
	Cpu      Cpu
	State    ThreadState
	Retired  uint64  // instructions retired by this thread
	Output   []int64 // values printed via sys print
	ExitCode uint64
	Fault    *Fault
	StartTS  uint64 // sequencer timestamp at which the thread became live
	EndTS    uint64 // sequencer timestamp at which the thread terminated

	waitAddr uint64 // lock address while BlockedLock
	waitTid  int    // target while BlockedJoin
	yield    bool
}

// Observer receives the machine's execution events. A run has at most
// one: every recording hands the machine the recorder (internal/record),
// which passes events on to whatever rides along. All callbacks fire
// only for effects that actually happened (a faulting access produces no
// Load/Store event).
type Observer interface {
	// ThreadStarted fires when a thread becomes live, after its initial
	// Cpu state is final. startTS is the sequencer timestamp ordering the
	// thread's first region (the parent's spawn sequencer, or 0 for the
	// main thread).
	ThreadStarted(t *Thread, startTS uint64)
	// ThreadEnded fires when a thread terminates, with a fresh timestamp
	// closing its final region.
	ThreadEnded(t *Thread, endTS uint64)
	// Load/Store fire per successful data-memory access. idx is the index
	// of the executing instruction in the thread's retirement order, and
	// atomic marks accesses by lock-prefixed instructions.
	Load(tid int, idx uint64, pc int, addr, val uint64, atomic bool)
	Store(tid int, idx uint64, pc int, addr, val uint64, atomic bool)
	// Sequencer fires when a synchronization instruction retires; ts is
	// the global timestamp it was assigned. sysNum is the syscall number
	// for OpSys sequencers and -1 otherwise.
	Sequencer(tid int, idx uint64, ts uint64, op isa.Op, sysNum int64)
	// SyscallRet fires after a syscall retires, reporting the result
	// (which replaced r1) that the replayer must inject.
	SyscallRet(tid int, idx uint64, res uint64)
}

// KeyFramer is an optional Observer extension: AfterRetire fires after
// every retired instruction, letting a recorder place key frames at exact
// instruction boundaries. The machine detects the interface once at
// construction, so plain observers pay nothing.
type KeyFramer interface {
	AfterRetire(t *Thread)
}

// Stopper is an optional Observer extension: the machine polls
// StopRequested at scheduling-quantum boundaries and ends the run early
// when it returns true. The check sits outside the per-instruction hot
// loop, so the whole quantum that triggered the stop still retires and
// the truncation point is deterministic for a given seed. Like KeyFramer,
// the interface is detected once at construction.
type Stopper interface {
	StopRequested() bool
}

// Config controls one deterministic machine run.
type Config struct {
	Seed     int64  // scheduler seed; runs with equal Seed are identical
	MaxSteps uint64 // global retired-instruction budget (default and ceiling isa.MaxSteps)
	Observer Observer

	// Policy selects the interleaving strategy (default PolicyRandom).
	Policy SchedPolicy
}

// The machine's fixed parameters. The heap has none: only the thread
// stacks at isa.StackBase bound it.
const (
	maxQuantum = 12     // most instructions per scheduling quantum
	maxThreads = 64     // spawn limit, thread 0 included
	pctDepth   = 3      // priority change points of PolicyPCT
	pctHorizon = 50_000 // instruction-count range the change points are sampled from
)

func (c Config) withDefaults() Config {
	if c.MaxSteps == 0 || c.MaxSteps > isa.MaxSteps {
		c.MaxSteps = isa.MaxSteps
	}
	return c
}

// Result summarizes a finished run.
type Result struct {
	Threads    []*Thread
	TotalSteps uint64
	Deadlocked bool
	FinalClock uint64
	Stopped    bool // a Stopper observer ended the run early
}

// Machine executes one program deterministically.
type Machine struct {
	prog     *isa.Program
	cfg      Config
	mem      *Memory
	threads  []*Thread
	locks    map[uint64]int // lock address -> holder tid
	sched    *rand.Rand
	entropy  uint64
	clock    uint64 // global sequencer timestamp
	retired  uint64 // global retired-instruction count (virtual time)
	obs      Observer
	kf       KeyFramer
	stopper  Stopper
	stopped  bool
	pendTS   uint64 // timestamp pre-allocated for the sync op in flight
	liveCnt  int
	deadlock bool
	ss       schedState
	runnable []*Thread // the runnable threads in ID order, while !runStale
	runStale bool      // a thread spawned, blocked, woke or ended since runnable was built
	env      threadEnv // the Env handed to Step, aimed at the thread being stepped
}

// New builds a machine for prog. The program is validated; thread 0 is
// created at prog.Entry with its stack pointer set.
func New(prog *isa.Program, cfg Config) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if len(prog.Code) == 0 {
		return nil, fmt.Errorf("machine: empty program %s", prog.Name)
	}
	cfg = cfg.withDefaults()
	m := &Machine{
		prog:     prog,
		cfg:      cfg,
		mem:      NewMemory(0),
		locks:    make(map[uint64]int),
		sched:    rand.New(rand.NewSource(cfg.Seed)),
		entropy:  uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
		obs:      cfg.Observer,
		runStale: true,
	}
	m.env.m = m
	if kf, ok := cfg.Observer.(KeyFramer); ok {
		m.kf = kf
	}
	if st, ok := cfg.Observer.(Stopper); ok {
		m.stopper = st
	}
	m.mem.LoadInit(prog.Data)
	t0 := &Thread{ID: 0, State: Runnable}
	t0.Cpu.PC = prog.Entry
	t0.Cpu.Regs[isa.SP] = isa.StackTop(0)
	m.threads = append(m.threads, t0)
	m.liveCnt = 1
	m.initSched()
	if m.obs != nil {
		m.obs.ThreadStarted(t0, 0)
	}
	return m, nil
}

func (m *Machine) nextTS() uint64 {
	m.clock++
	return m.clock
}

func (m *Machine) nextRand() uint64 {
	// xorshift64*: a fixed, Go-version-independent stream.
	x := m.entropy
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.entropy = x
	return x * 0x2545F4914F6CDD1D
}

// Run executes the program to completion (all threads terminated),
// deadlock, or the step budget. It is not restartable.
func (m *Machine) Run() *Result {
	for m.retired < m.cfg.MaxSteps {
		if m.stopper != nil && m.stopper.StopRequested() {
			m.stopped = true
			break
		}
		t := m.pick()
		if t == nil {
			break
		}
		q := 1 + m.sched.Intn(maxQuantum)
		for i := 0; i < q && t.State == Runnable && m.retired < m.cfg.MaxSteps; i++ {
			m.stepThread(t)
			if t.yield {
				t.yield = false
				break
			}
		}
	}
	return &Result{
		Threads:    m.threads,
		TotalSteps: m.retired,
		Deadlocked: m.deadlock,
		FinalClock: m.clock,
		Stopped:    m.stopped,
	}
}

// pick chooses the next thread to schedule according to the configured
// policy (seeded, hence deterministic). Returns nil when no thread can
// run; that is completion if every thread terminated, deadlock otherwise.
func (m *Machine) pick() *Thread {
	return m.pickPolicy()
}

func (m *Machine) stepThread(t *Thread) {
	var ins isa.Instr
	if t.Cpu.PC >= 0 && t.Cpu.PC < len(m.prog.Code) {
		ins = m.prog.Code[t.Cpu.PC]
	}
	idx := t.Retired
	isSync := ins.Op.IsSync()
	if isSync {
		// Pre-allocate the timestamp so a spawn performed inside the
		// syscall can hand it to the child as its start timestamp.
		m.pendTS = m.nextTS()
	}
	m.env.t = t
	out, f := Step(&t.Cpu, m.prog.Code, &m.env)
	switch out {
	case StepContinue:
		t.Retired++
		m.retired++
		if isSync {
			m.emitSequencer(t, idx, ins)
		}
		if m.kf != nil {
			m.kf.AfterRetire(t)
		}
	case StepHalt:
		t.Retired++
		m.retired++
		t.State = Halted
		m.endThread(t)
	case StepExited:
		t.Retired++
		m.retired++
		if isSync {
			m.emitSequencer(t, idx, ins)
		}
		t.State = Exited
		m.endThread(t)
	case StepBlocked:
		// State was set by the env (BlockedLock / BlockedJoin); the
		// pre-allocated timestamp is simply discarded, leaving a gap in
		// the clock, which is harmless.
		m.runStale = true
	case StepFault:
		t.State = Faulted
		t.Fault = f
		m.endThread(t)
	}
}

func (m *Machine) emitSequencer(t *Thread, idx uint64, ins isa.Instr) {
	if m.obs == nil {
		return
	}
	sysNum := int64(-1)
	if ins.Op == isa.OpSys {
		sysNum = ins.Imm
	}
	m.obs.Sequencer(t.ID, idx, m.pendTS, ins.Op, sysNum)
}

func (m *Machine) endThread(t *Thread) {
	t.EndTS = m.nextTS()
	m.liveCnt--
	m.runStale = true
	// Wake joiners.
	for _, w := range m.threads {
		if w.State == BlockedJoin && w.waitTid == t.ID {
			w.State = Runnable
		}
	}
	if m.obs != nil {
		m.obs.ThreadEnded(t, t.EndTS)
	}
}

// threadEnv adapts the machine to the Env interface for one thread. The
// machine owns a single threadEnv and re-aims it at each thread it steps,
// so handing it to Step as a pointer boxes nothing: a two-word value
// converted to Env would cost a heap allocation per retired instruction.
// The back-pointer lives here rather than on Thread because
// Result.Threads outlives the run and must not pin the machine's memory.
type threadEnv struct {
	m *Machine
	t *Thread
}

func (e *threadEnv) Load(addr uint64, atomic bool, pc int) (uint64, *Fault) {
	v, f := e.m.mem.Load(addr, pc)
	if f != nil {
		return 0, f
	}
	if e.m.obs != nil {
		e.m.obs.Load(e.t.ID, e.t.Retired, pc, addr, v, atomic)
	}
	return v, nil
}

func (e *threadEnv) Store(addr, val uint64, atomic bool, pc int) *Fault {
	if f := e.m.mem.Store(addr, val, pc); f != nil {
		return f
	}
	if e.m.obs != nil {
		e.m.obs.Store(e.t.ID, e.t.Retired, pc, addr, val, atomic)
	}
	return nil
}

func (e *threadEnv) Lock(addr uint64, pc int) (bool, *Fault) {
	if addr < isa.NullGuardTop {
		return false, &Fault{Kind: FaultNullAccess, PC: pc, Addr: addr}
	}
	holder, held := e.m.locks[addr]
	if !held {
		e.m.locks[addr] = e.t.ID
		return false, nil
	}
	if holder == e.t.ID {
		// Non-reentrant: self-deadlock. Block forever; the machine
		// reports deadlock if nothing else can run.
		e.t.State = BlockedLock
		e.t.waitAddr = addr
		return true, nil
	}
	e.t.State = BlockedLock
	e.t.waitAddr = addr
	return true, nil
}

func (e *threadEnv) Unlock(addr uint64, pc int) *Fault {
	holder, held := e.m.locks[addr]
	if !held || holder != e.t.ID {
		return &Fault{Kind: FaultUnheldUnlock, PC: pc, Addr: addr}
	}
	delete(e.m.locks, addr)
	// Wake every waiter; they re-contend and the scheduler picks the
	// winner, which keeps lock handoff order a pure function of the seed.
	for _, w := range e.m.threads {
		if w.State == BlockedLock && w.waitAddr == addr {
			w.State = Runnable
			e.m.runStale = true
		}
	}
	return nil
}

func (e *threadEnv) Syscall(cpu *Cpu, num int64, pc int) (SysOutcome, *Fault) {
	m, t := e.m, e.t
	// Syscall results replace r1; the recorder logs the injected value so
	// the replayer can reproduce it without re-running the kernel.
	emitRet := func(res uint64) {
		cpu.Regs[1] = res
		if m.obs != nil {
			m.obs.SyscallRet(t.ID, t.Retired, res)
		}
	}
	switch num {
	case isa.SysExit:
		t.ExitCode = cpu.Regs[1]
		return SysExited, nil

	case isa.SysPrint:
		t.Output = append(t.Output, int64(cpu.Regs[1]))
		emitRet(cpu.Regs[1])
		return SysDone, nil

	case isa.SysAlloc:
		base, f := m.mem.Alloc(cpu.Regs[1], pc)
		if f != nil {
			return SysDone, f
		}
		emitRet(base)
		return SysDone, nil

	case isa.SysFree:
		if f := m.mem.Free(cpu.Regs[1], pc); f != nil {
			return SysDone, f
		}
		emitRet(0)
		return SysDone, nil

	case isa.SysSpawn:
		entry := int(int64(cpu.Regs[1]))
		if entry < 0 || entry >= len(m.prog.Code) {
			return SysDone, &Fault{Kind: FaultBadSpawn, PC: pc, Addr: cpu.Regs[1]}
		}
		if len(m.threads) >= maxThreads {
			return SysDone, &Fault{Kind: FaultBadSpawn, PC: pc}
		}
		child := &Thread{ID: len(m.threads), State: Runnable, StartTS: m.pendTS}
		child.Cpu.PC = entry
		child.Cpu.Regs[1] = cpu.Regs[2]
		child.Cpu.Regs[isa.SP] = isa.StackTop(child.ID)
		m.threads = append(m.threads, child)
		m.liveCnt++
		m.runStale = true
		m.assignPriority(child.ID)
		if m.obs != nil {
			m.obs.ThreadStarted(child, child.StartTS)
		}
		emitRet(uint64(child.ID))
		return SysDone, nil

	case isa.SysJoin:
		target := int(int64(cpu.Regs[1]))
		if target < 0 || target >= len(m.threads) || target == t.ID {
			return SysDone, &Fault{Kind: FaultBadJoin, PC: pc, Addr: cpu.Regs[1]}
		}
		w := m.threads[target]
		if !w.State.Terminated() {
			t.State = BlockedJoin
			t.waitTid = target
			return SysBlocked, nil
		}
		code := w.ExitCode
		if w.State == Faulted {
			code = ^uint64(0)
		}
		emitRet(code)
		return SysDone, nil

	case isa.SysYield:
		t.yield = true
		emitRet(0)
		return SysDone, nil

	case isa.SysGettid:
		emitRet(uint64(t.ID))
		return SysDone, nil

	case isa.SysRand:
		emitRet(m.nextRand())
		return SysDone, nil

	case isa.SysTime:
		emitRet(m.retired)
		return SysDone, nil

	case isa.SysNop:
		emitRet(0)
		return SysDone, nil
	}
	return SysDone, &Fault{Kind: FaultInvalidOp, PC: pc}
}
