package machine

import "fmt"

// SchedPolicy selects the scheduler strategy used to interleave threads.
// The recorded interleaving determines which races (and which instances)
// a dynamic analysis can see, so the policy is the coverage knob of the
// whole pipeline — the paper relies on stress testing (its executions
// came from stress-tested builds); PCT-style priority scheduling is the
// standard systematic alternative.
type SchedPolicy int

const (
	// PolicyRandom picks a uniformly random runnable thread per quantum
	// (the default; a seeded stand-in for stress-test noise).
	PolicyRandom SchedPolicy = iota
	// PolicyRoundRobin cycles runnable threads in id order with a fixed
	// quantum — the most regular interleaving, exposing the fewest races.
	PolicyRoundRobin
	// PolicyPCT approximates the PCT algorithm (Burckhardt et al.): each
	// thread gets a random priority, the highest-priority runnable thread
	// always runs, and at a few random points in the execution the
	// running thread's priority is demoted below everyone else's. Good at
	// exposing ordering bugs with few schedules.
	PolicyPCT
)

func (p SchedPolicy) String() string {
	switch p {
	case PolicyRandom:
		return "random"
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyPCT:
		return "pct"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// schedState holds per-policy scheduler bookkeeping.
type schedState struct {
	rrNext      int         // round-robin cursor
	priorities  map[int]int // PCT: tid -> priority (higher runs first)
	prioNext    int         // next fresh priority to hand out
	changeAt    []uint64    // PCT: retired-instruction counts that trigger a demotion
	changeIdx   int
	demoteFloor int // PCT: priorities below every initial priority
}

// initSched prepares policy state. Only PolicyPCT consumes scheduler RNG
// here, so the other policies' schedules are unaffected by its existence
// (the RNG stream per seed stays what it always was).
func (m *Machine) initSched() {
	if m.cfg.Policy != PolicyPCT {
		return
	}
	m.ss.priorities = make(map[int]int)
	m.ss.prioNext = 1 << 20
	m.ss.demoteFloor = 0
	// Sample pctDepth change points over the expected run length.
	for i := 0; i < pctDepth; i++ {
		m.ss.changeAt = append(m.ss.changeAt, uint64(m.sched.Int63n(pctHorizon)))
	}
	sortU64(m.ss.changeAt)
	m.assignPriority(0)
}

func sortU64(xs []uint64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// assignPriority gives a newly started thread a random PCT priority.
// A no-op under other policies (and must stay one: consuming scheduler
// RNG here would perturb every recorded schedule).
func (m *Machine) assignPriority(tid int) {
	if m.cfg.Policy != PolicyPCT {
		return
	}
	m.ss.priorities[tid] = m.ss.prioNext + m.sched.Intn(1<<10)
	m.ss.prioNext += 1 << 10
}

// pickPolicy chooses the next thread according to the configured policy.
// Returns nil when nothing is runnable. The runnable list is rebuilt
// only after a thread spawned, blocked, woke or ended; it is always in
// thread-ID order, so keeping it picks the same thread as rebuilding it
// every quantum would.
func (m *Machine) pickPolicy() *Thread {
	if m.runStale {
		m.runnable = appendRunnable(m.runnable[:0], m.threads)
		m.runStale = false
	}
	runnable := m.runnable
	if len(runnable) == 0 {
		for _, t := range m.threads {
			if t.State == BlockedLock || t.State == BlockedJoin {
				m.deadlock = true
			}
		}
		return nil
	}
	switch m.cfg.Policy {
	case PolicyRoundRobin:
		// Advance the cursor to the next runnable tid.
		for i := 0; i < len(m.threads); i++ {
			cand := m.threads[(m.ss.rrNext+i)%len(m.threads)]
			if cand.State == Runnable {
				m.ss.rrNext = cand.ID + 1
				return cand
			}
		}
		return runnable[0]
	case PolicyPCT:
		// Demote the highest-priority thread when a change point passed.
		for m.ss.changeIdx < len(m.ss.changeAt) && m.retired >= m.ss.changeAt[m.ss.changeIdx] {
			m.ss.changeIdx++
			if top := maxPriority(runnable, m.ss.priorities); top != nil {
				m.ss.demoteFloor--
				m.ss.priorities[top.ID] = m.ss.demoteFloor
			}
		}
		return maxPriority(runnable, m.ss.priorities)
	default:
		return runnable[m.sched.Intn(len(runnable))]
	}
}

func appendRunnable(out []*Thread, threads []*Thread) []*Thread {
	for _, t := range threads {
		if t.State == Runnable {
			out = append(out, t)
		}
	}
	return out
}

func maxPriority(threads []*Thread, prio map[int]int) *Thread {
	var best *Thread
	for _, t := range threads {
		if best == nil || prio[t.ID] > prio[best.ID] {
			best = t
		}
	}
	return best
}
