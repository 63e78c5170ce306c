package sched

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
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

// TestForEachForkSurvivesPanickingItems: a panicking item must not take
// its batch down. The other items still run, ForEachFork returns, and
// each panic is counted on sched.panics and marked on the item's own
// lane, at one worker as at several.
func TestForEachForkSurvivesPanickingItems(t *testing.T) {
	for _, workers := range []int{1, 2} {
		reg := obs.NewRegistry()
		tl := reg.EnableTimeline(0)
		var ok atomic.Int32
		ForEachFork(reg, workers, 20, func(i int, reg *obs.Registry) {
			reg.LabelLane(fmt.Sprintf("item%02d", i))
			if i%4 == 0 {
				panic("job exploded")
			}
			ok.Add(1)
		})
		if got := ok.Load(); got != 15 {
			t.Errorf("workers=%d: %d healthy items ran, want 15", workers, got)
		}
		if got := reg.Counter("sched.panics").Value(); got != 5 {
			t.Errorf("workers=%d: sched.panics = %d, want 5", workers, got)
		}
		if got := reg.Counter("sched.tasks_completed").Value(); got != 20 {
			t.Errorf("workers=%d: sched.tasks_completed = %d, want 20", workers, got)
		}
		// Events merge in timestamp order, so concurrent items' marks
		// interleave; compare the set of marked lanes.
		snap := tl.Snapshot()
		var marked []string
		for _, e := range snap.Events {
			if e.Name == "sched.panic" {
				marked = append(marked, snap.Lanes[e.Lane].Label)
			}
		}
		sort.Strings(marked)
		if want := []string{"item00", "item04", "item08", "item12", "item16"}; !reflect.DeepEqual(marked, want) {
			t.Errorf("workers=%d: sched.panic marked on lanes %v, want %v", workers, marked, want)
		}
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
// as for every jobs knob, not a serial run — two items must be able to run at
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

// TestForEachForkPublishesMetrics: the sched.* family is the same at
// every worker count, one included, and sched.panics reads 0 rather
// than being absent when nothing panicked.
func TestForEachForkPublishesMetrics(t *testing.T) {
	for _, workers := range []int{1, 2} {
		reg := obs.NewRegistry()
		const n = 10
		ForEachFork(reg, workers, n, func(int, *obs.Registry) {})
		snap := reg.Snapshot()
		if got := snap.Counters["sched.tasks_completed"]; got != n {
			t.Errorf("workers=%d: tasks_completed = %d, want %d", workers, got, n)
		}
		if got, ok := snap.Counters["sched.panics"]; !ok || got != 0 {
			t.Errorf("workers=%d: sched.panics = %d (present %v), want a present 0", workers, got, ok)
		}
		if got := snap.Gauges["sched.workers"]; got != float64(workers) {
			t.Errorf("workers=%d: workers gauge = %v", workers, got)
		}
		if got := snap.Histograms["sched.task_latency_ns"].Count; got != n {
			t.Errorf("workers=%d: task_latency_ns count = %d, want %d", workers, got, n)
		}
	}
}
