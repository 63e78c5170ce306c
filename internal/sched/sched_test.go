package sched

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ n, def, want int }{
		{1, 4, 1},
		{8, 4, 8},
		{0, 4, 4},
		{-3, 4, 4},
		{0, 0, 1},
		{-1, -5, 1},
	}
	for _, c := range cases {
		if got := Normalize(c.n, c.def); got != c.want {
			t.Errorf("Normalize(%d, %d) = %d, want %d", c.n, c.def, got, c.want)
		}
	}
}

func TestDefaultJobsIsGOMAXPROCS(t *testing.T) {
	if DefaultJobs() != runtime.GOMAXPROCS(0) {
		t.Errorf("DefaultJobs = %d, want %d", DefaultJobs(), runtime.GOMAXPROCS(0))
	}
}

func TestPoolRunsEveryTaskExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 200
		var ran [n]atomic.Int32
		p := NewPool(workers, nil)
		for i := 0; i < n; i++ {
			i := i
			p.Submit(func() { ran[i].Add(1) })
		}
		p.Wait()
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestPoolPublishesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(2, reg)
	const n = 10
	for i := 0; i < n; i++ {
		p.Submit(func() {})
	}
	p.Wait()
	snap := reg.Snapshot()
	if got := snap.Counters["sched.tasks_submitted"]; got != n {
		t.Errorf("tasks_submitted = %d, want %d", got, n)
	}
	if got := snap.Counters["sched.tasks_completed"]; got != n {
		t.Errorf("tasks_completed = %d, want %d", got, n)
	}
	if got := snap.Gauges["sched.workers"]; got != 2 {
		t.Errorf("workers gauge = %v, want 2", got)
	}
	if got := snap.Gauges["sched.queue_depth"]; got != 0 {
		t.Errorf("final queue_depth = %v, want 0", got)
	}
	if snap.Gauges["sched.queue_peak"] < 1 {
		t.Errorf("queue_peak = %v, want >= 1", snap.Gauges["sched.queue_peak"])
	}
	if got := snap.Histograms["sched.task_latency_ns"].Count; got != n {
		t.Errorf("task_latency_ns count = %d, want %d", got, n)
	}
	util := snap.Gauges["sched.worker_utilization"]
	if util < 0 || util > 1 {
		t.Errorf("worker_utilization = %v, want within [0, 1]", util)
	}
}

// TestPoolConcurrencyUnderRace exercises the pool with shared-counter
// tasks; run under -race this is the scheduler's data-race check.
func TestPoolConcurrencyUnderRace(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(8, reg)
	var total atomic.Int64
	for i := 0; i < 500; i++ {
		i := i
		p.Submit(func() {
			total.Add(int64(i))
			reg.Counter("test.bumps").Inc()
		})
	}
	p.Wait()
	want := int64(500 * 499 / 2)
	if total.Load() != want {
		t.Errorf("total = %d, want %d", total.Load(), want)
	}
	if got := reg.Snapshot().Counters["test.bumps"]; got != 500 {
		t.Errorf("bumps = %d, want 500", got)
	}
}

func TestPoolSubmitAfterWaitPanics(t *testing.T) {
	p := NewPool(1, nil)
	p.Wait()
	defer func() {
		if recover() == nil {
			t.Error("Submit after Wait did not panic")
		}
	}()
	p.Submit(func() {})
}

func TestForEachCoversRangeAtAnyWidth(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		ForEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, hits[i].Load())
			}
		}
	}
	// Empty and single-element ranges.
	ForEach(4, 0, func(i int) { t.Error("called on empty range") })
	ran := 0
	ForEach(4, 1, func(i int) { ran++ })
	if ran != 1 {
		t.Errorf("n=1 ran %d times", ran)
	}
}

// TestPoolSurvivesPanickingTasks: a panicking job must not kill its
// worker — the rest of the queue still drains, Wait returns, and the
// panic is counted on sched.panics.
func TestPoolSurvivesPanickingTasks(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(2, reg)
	var ok atomic.Int32
	for i := 0; i < 20; i++ {
		i := i
		p.Submit(func() {
			if i%4 == 0 {
				panic("job exploded")
			}
			ok.Add(1)
		})
	}
	p.Wait()
	if got := ok.Load(); got != 15 {
		t.Errorf("%d healthy tasks ran, want 15", got)
	}
	if got := reg.Counter("sched.panics").Value(); got != 5 {
		t.Errorf("sched.panics = %d, want 5", got)
	}
	if got := reg.Counter("sched.tasks_completed").Value(); got != 20 {
		t.Errorf("sched.tasks_completed = %d, want 20", got)
	}
}

// TestGuardConvertsPanicToError: Guard returns the panic as a
// *PanicError with a stack, counts it, and passes plain errors through.
func TestGuardConvertsPanicToError(t *testing.T) {
	reg := obs.NewRegistry()
	err := Guard(reg, func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T (%v), want *PanicError", err, err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = %+v, want value boom with stack", pe)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("Error() = %q missing panic value", err.Error())
	}
	if got := reg.Counter("sched.panics").Value(); got != 1 {
		t.Errorf("sched.panics = %d, want 1", got)
	}
	if err := Guard(reg, func() error { return nil }); err != nil {
		t.Errorf("clean fn returned %v", err)
	}
	want := errors.New("plain")
	if err := Guard(nil, func() error { return want }); err != want {
		t.Errorf("plain error not passed through: %v", err)
	}
}

// forkRun fans n items out with ForEachFork at the given worker count.
// Every item labels its timeline lane, bumps counters, opens a stage
// span (the stage names first start out of index order) with a nested
// span, and emits an instant. It returns the deterministic residue of
// the run: counters without sched.*, the span tree's names and counts,
// and the lane labels in lane order.
func forkRun(workers, n int) (counters map[string]uint64, spans, lanes []string) {
	reg := obs.NewRegistry()
	tl := reg.EnableTimeline(0)
	batch := reg.StartSpan("batch")
	ForEachFork(reg, workers, n, func(i int, reg *obs.Registry) {
		reg.LabelLane(fmt.Sprintf("item%02d", i))
		reg.Counter("items").Inc()
		reg.Counter(fmt.Sprintf("items.mod3.%d", i%3)).Add(uint64(i))
		stage := reg.StartSpan(fmt.Sprintf("stage%d", (n-i)%4))
		reg.StartSpan("inner").End()
		reg.Emit("item.done", uint64(i))
		stage.End()
	})
	batch.End()

	snap := reg.Snapshot()
	counters = map[string]uint64{}
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, "sched.") {
			counters[name] = v
		}
	}
	var walk func(prefix string, ss []obs.SpanSnapshot)
	walk = func(prefix string, ss []obs.SpanSnapshot) {
		for _, s := range ss {
			spans = append(spans, fmt.Sprintf("%s%s#%d", prefix, s.Name, s.Count))
			walk(prefix+s.Name+"/", s.Children)
		}
	}
	walk("", snap.Spans)
	for _, l := range tl.Snapshot().Lanes {
		lanes = append(lanes, l.Label)
	}
	return counters, spans, lanes
}

// TestForEachForkSameAtAnyWorkerCount: forks are made and adopted in
// index order, so the metrics (sched.* aside), the span tree's order,
// and the lane order do not depend on the worker count.
func TestForEachForkSameAtAnyWorkerCount(t *testing.T) {
	const n = 12
	c1, s1, l1 := forkRun(1, n)
	c8, s8, l8 := forkRun(8, n)
	if !reflect.DeepEqual(c1, c8) {
		t.Errorf("counters differ:\nworkers=1: %v\nworkers=8: %v", c1, c8)
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Errorf("span trees differ:\nworkers=1: %v\nworkers=8: %v", s1, s8)
	}
	if !reflect.DeepEqual(l1, l8) {
		t.Errorf("lane order differs:\nworkers=1: %v\nworkers=8: %v", l1, l8)
	}
	if c1["items"] != n || len(l1) != n+1 || l1[1] != "item00" || l1[n] != fmt.Sprintf("item%02d", n-1) {
		t.Errorf("items = %d, lanes = %v; want %d items on one lane each after main", c1["items"], l1, n)
	}
}

// TestForEachForkDefaultFansOut: workers = 0 means DefaultJobs workers,
// as for NewPool, not a serial run — two items must be able to run at
// once.
func TestForEachForkDefaultFansOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	reg := obs.NewRegistry()
	arrived := make(chan struct{}, 2)
	both := make(chan struct{})
	var once sync.Once
	ForEachFork(reg, 0, 2, func(i int, _ *obs.Registry) {
		arrived <- struct{}{}
		if len(arrived) == 2 {
			once.Do(func() { close(both) })
		}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			t.Errorf("item %d ran alone: workers = 0 did not fan out", i)
		}
	})
	if got := reg.Snapshot().Gauges["sched.workers"]; got != 4 {
		t.Errorf("sched.workers = %v at workers = 0 with GOMAXPROCS 4, want 4", got)
	}
}
