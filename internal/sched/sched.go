// Package sched is the bounded-concurrency scheduler for the offline
// half of the pipeline. The paper's replay analysis is explicitly an
// offline, embarrassingly parallel job — every recorded execution is
// analyzed independently — so the only scheduling problem is bounding
// the fan-out and keeping the aggregation order deterministic. The
// package has one parallel-for, in two shapes:
//
//   - ForEach: a cursor-based parallel-for over an index range, the
//     loop under ForEachFork.
//   - ForEachFork: ForEach where every item runs under Guard and
//     publishes through its own registry fork. Every batch fans out
//     through it, at every worker count: record-suite recordings,
//     analyze-dir decodes, whole-log analyses (each racer serve job is
//     a batch of one), static cross-validation.
//
// Callers own determinism: tasks write results into index-addressed
// slots and the caller folds them in index order, so any worker count
// produces byte-identical output to the serial run.
//
// Normalize is the single validation point for every user-facing
// parallelism knob (the CLI -jobs flags): values below one fall back to
// the caller's default instead of being silently clamped or, worse,
// spinning up a negative worker count.
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
// whole batch (and process) down.
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

// Normalize validates a user-facing jobs setting: n >= 1 is used as-is
// (values above the core count are allowed — the tasks are independent
// and oversubscription is the caller's call), anything else (zero,
// negatives) falls back to def. A def below one normalizes to 1, so the
// result is always a valid worker count.
func Normalize(n, def int) int {
	if n >= 1 {
		return n
	}
	if def >= 1 {
		return def
	}
	return 1
}

// ForEachFork runs f(i, fork) for every i in [0, n) across
// Normalize(workers, DefaultJobs()) workers, where fork is a fork of
// reg private to item i: spans the item opens build the fork's own
// tree, and its timeline events land on the fork's lane (an item may
// label it with LabelLane). Forks are made before the first item runs
// and adopted after the last one finishes, both in index order, so the
// span tree, the metric names and the lane order are the same at every
// worker count, one included.
//
// Each item runs under Guard on its fork: a panicking item is
// recovered, counted on sched.panics, logged and marked on its lane,
// and the rest of the batch still runs. Items that want the panic as
// an error wrap their body in a Guard of their own. ForEachFork
// publishes into reg:
//
//	sched.workers          gauge     normalized worker count
//	sched.tasks_completed  counter   items finished (panicked included)
//	sched.task_latency_ns  histogram per-item wall latency
//	sched.panics           counter   panics recovered from items
func ForEachFork(reg *obs.Registry, workers, n int, f func(i int, reg *obs.Registry)) {
	workers = Normalize(workers, DefaultJobs())
	reg.Gauge("sched.workers").Set(float64(workers))
	completed := reg.Counter("sched.tasks_completed")
	latency := reg.Histogram("sched.task_latency_ns")
	reg.Counter("sched.panics") // present as 0 when nothing panics
	forks := make([]*obs.Registry, n)
	for i := range forks {
		forks[i] = reg.Fork()
	}
	ForEach(workers, n, func(i int) {
		start := time.Now()
		Guard(forks[i], func() error {
			f(i, forks[i])
			return nil
		})
		latency.Observe(int(time.Since(start).Nanoseconds()))
		completed.Inc()
	})
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
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
