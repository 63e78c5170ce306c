// Package sched is the bounded-concurrency scheduler for the offline
// half of the pipeline. The paper's replay analysis is explicitly an
// offline, embarrassingly parallel job — every recorded execution (and
// every race instance within one) is analyzed independently — so the
// only scheduling problem is bounding the fan-out and keeping the
// aggregation order deterministic. The package provides the two shapes
// that need:
//
//   - Pool: a fixed set of workers draining a FIFO task queue, used to
//     fan whole-execution analyses (replay + detect + classify) across
//     the suite. The pool publishes sched.* metrics (queue depth,
//     worker utilization, per-task latency) into an obs.Registry.
//   - ForEachFork: a Pool over an index range where every item
//     publishes through its own registry fork, used by every batch
//     stage (record-suite recordings, analyze-dir decodes, whole-log
//     analyses, static cross-validation).
//   - ForEach: a lightweight parallel-for over an index range, used by
//     the classifier to drain a flattened (race, instance) work list
//     with no per-race pool spin-up.
//
// Callers own determinism: tasks write results into index-addressed
// slots and the caller folds them in index order, so any worker count
// produces byte-identical output to the serial run.
//
// Normalize is the single validation point for every user-facing
// parallelism knob (the CLI -jobs flags and classify.Options.Parallel):
// values below one fall back to the caller's default instead of being
// silently clamped or, worse, spinning up a negative worker count.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// PanicError is a panic recovered from a scheduled job, carrying the
// panic value and the goroutine stack at the point of the panic. It is
// how a crashing job surfaces as a per-job error instead of taking the
// whole pool (and process) down.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job panicked: %v", e.Value)
}

// Guard runs fn, converting a panic into a *PanicError return and
// counting it on the registry's sched.panics counter (nil reg skips the
// counter, never the recovery). Job bodies whose failure should
// quarantine rather than crash wrap themselves with Guard.
func Guard(reg *obs.Registry, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			reg.Counter("sched.panics").Inc()
			reg.Emit("sched.panic", 0)
			reg.Logger().Error("job panicked", "panic", fmt.Sprint(r))
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// DefaultJobs is the worker count used when a jobs knob is unset:
// GOMAXPROCS, i.e. as parallel as the hardware allows.
func DefaultJobs() int { return runtime.GOMAXPROCS(0) }

// Normalize validates a user-facing jobs/parallel setting: n >= 1 is
// used as-is (values above the core count are allowed — the tasks are
// independent and oversubscription is the caller's call), anything else
// (zero, negatives) falls back to def. A def below one normalizes to 1,
// so the result is always a valid worker count.
func Normalize(n, def int) int {
	if n >= 1 {
		return n
	}
	if def >= 1 {
		return def
	}
	return 1
}

// Pool is a bounded worker pool draining a FIFO task queue. Submit
// never blocks (the queue is unbounded), so producers can enqueue the
// whole work list before the first task finishes; Wait closes the queue
// and blocks until every submitted task has run.
//
// A Pool publishes its sched.* metrics into the registry it was built
// with (nil is off, as everywhere in obs):
//
//	sched.workers             gauge     worker goroutines
//	sched.queue_depth         gauge     instantaneous queue length
//	sched.queue_peak          gauge     high-water queue length
//	sched.tasks_submitted     counter   tasks enqueued
//	sched.tasks_completed     counter   tasks finished
//	sched.worker_busy_ns      counter   summed time inside tasks
//	sched.worker_idle_ns      counter   summed time waiting for work
//	sched.worker_utilization  gauge     busy / (busy + idle), set by Wait
//	sched.task_latency_ns     histogram per-task wall latency
//	sched.panics              counter   panics recovered from tasks
//
// Workers are panic-isolated: a task that panics is recovered (and
// counted on sched.panics) instead of killing the worker goroutine and
// deadlocking Wait. Tasks that want the panic as a per-job error wrap
// their body with Guard; the worker-level recovery is the last line of
// defense for tasks that don't.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	peak   int
	closed bool
	wg     sync.WaitGroup

	reg *obs.Registry // timeline/log access; metric handles below are pre-resolved

	cSubmitted, cCompleted *obs.Counter
	cBusy, cIdle, cPanics  *obs.Counter
	gDepth, gPeak, gUtil   *obs.Gauge
	hLatency               *obs.Histogram
}

// NewPool starts a pool of Normalize(workers, DefaultJobs()) workers
// reporting into reg (nil reg disables the metrics, not the pool).
func NewPool(workers int, reg *obs.Registry) *Pool {
	workers = Normalize(workers, DefaultJobs())
	p := &Pool{
		reg:        reg,
		cSubmitted: reg.Counter("sched.tasks_submitted"),
		cCompleted: reg.Counter("sched.tasks_completed"),
		cBusy:      reg.Counter("sched.worker_busy_ns"),
		cIdle:      reg.Counter("sched.worker_idle_ns"),
		cPanics:    reg.Counter("sched.panics"),
		gDepth:     reg.Gauge("sched.queue_depth"),
		gPeak:      reg.Gauge("sched.queue_peak"),
		gUtil:      reg.Gauge("sched.worker_utilization"),
		hLatency:   reg.Histogram("sched.task_latency_ns"),
	}
	p.cond = sync.NewCond(&p.mu)
	reg.Gauge("sched.workers").Set(float64(workers))
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// Submit enqueues one task. It must not be called after Wait.
func (p *Pool) Submit(f func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("sched: Submit after Wait")
	}
	p.queue = append(p.queue, f)
	if len(p.queue) > p.peak {
		p.peak = len(p.queue)
		p.gPeak.Set(float64(p.peak))
	}
	p.gDepth.Set(float64(len(p.queue)))
	p.mu.Unlock()
	p.cSubmitted.Inc()
	p.cond.Signal()
}

// Wait closes the queue and blocks until all submitted tasks have run,
// then publishes the final utilization gauge. The pool cannot be reused.
func (p *Pool) Wait() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	busy, idle := p.cBusy.Value(), p.cIdle.Value()
	if total := busy + idle; total > 0 {
		p.gUtil.Set(float64(busy) / float64(total))
	}
}

func (p *Pool) worker(w int) {
	defer p.wg.Done()
	p.reg.Emit("sched.worker.start", uint64(w))
	defer p.reg.Emit("sched.worker.stop", uint64(w))
	for {
		idleStart := time.Now()
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			p.cIdle.Add(uint64(time.Since(idleStart).Nanoseconds()))
			return
		}
		f := p.queue[0]
		p.queue = p.queue[1:]
		p.gDepth.Set(float64(len(p.queue)))
		p.mu.Unlock()
		p.cIdle.Add(uint64(time.Since(idleStart).Nanoseconds()))

		start := time.Now()
		p.runTask(f)
		d := time.Since(start)
		p.cBusy.Add(uint64(d.Nanoseconds()))
		p.hLatency.Observe(int(d.Nanoseconds()))
		p.cCompleted.Inc()
	}
}

// runTask executes one task with worker-level panic isolation: a
// panicking task is counted and swallowed so the worker survives and
// Wait still returns. Tasks that need the panic as data use Guard.
func (p *Pool) runTask(f func()) {
	defer func() {
		if r := recover(); r != nil {
			p.cPanics.Inc()
		}
	}()
	f()
}

// ForEachFork runs f(i, fork) for every i in [0, n) on a Pool of
// Normalize(workers, DefaultJobs()) workers, where fork is a fork of
// reg private to item i: spans the item opens build the fork's own
// tree, and its timeline events land on the fork's lane (an item may
// label it with LabelLane). Forks are made before the first item runs
// and adopted after the last one finishes, both in index order, so the
// span tree and the lane order are the same at every worker count. The
// pool publishes its sched.* metrics into reg; a panicking item is
// recovered and counted there, and items that want the panic as an
// error wrap their body with Guard.
func ForEachFork(reg *obs.Registry, workers, n int, f func(i int, reg *obs.Registry)) {
	forks := make([]*obs.Registry, n)
	for i := range forks {
		forks[i] = reg.Fork()
	}
	pool := NewPool(workers, reg)
	for i := range forks {
		i := i
		pool.Submit(func() { f(i, forks[i]) })
	}
	pool.Wait()
	for _, fork := range forks {
		reg.Adopt(fork)
	}
}

// ForEach runs f(0), …, f(n-1) across at most `workers` goroutines
// pulling indices from a shared cursor. workers <= 1 (or fewer than two
// items) runs inline with no goroutines at all, so the serial path pays
// nothing. Each index runs exactly once; f must be safe to call
// concurrently for distinct indices. Results written to index-addressed
// slots are bit-identical to the serial loop.
func ForEach(workers, n int, f func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { f(i) })
}

// ForEachWorker is ForEach with worker identity: f(w, i) runs item i on
// worker w, where 0 <= w < min(workers, n). All items handed to one
// worker run sequentially on it, so w safely indexes worker-local
// scratch state (the classifier reuses per-worker virtual-processor
// buffers this way). The serial path (workers <= 1 or n < 2) runs
// everything inline as worker 0.
func ForEachWorker(workers, n int, f func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}
