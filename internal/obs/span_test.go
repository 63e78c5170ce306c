package obs

import (
	"runtime/metrics"
	"testing"
	"time"
)

func TestSpanNestingAndMerge(t *testing.T) {
	r := NewRegistry()
	suite := r.StartSpan("suite")
	for i := 0; i < 3; i++ {
		rec := r.StartSpan("record")
		time.Sleep(time.Millisecond)
		rec.End()
	}
	rep := r.StartSpan("replay")
	rep.End()
	suite.End()

	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "suite" {
		t.Fatalf("top-level spans = %+v", snap.Spans)
	}
	kids := snap.Spans[0].Children
	if len(kids) != 2 {
		t.Fatalf("same-named spans must merge: %+v", kids)
	}
	if kids[0].Name != "record" || kids[0].Count != 3 {
		t.Errorf("record span = %+v", kids[0])
	}
	if kids[0].Nanos < (3 * time.Millisecond).Nanoseconds() {
		t.Errorf("record span accumulated %v, want >= 3ms", kids[0].Duration())
	}
	if snap.Spans[0].Nanos < kids[0].Nanos {
		t.Error("parent wall time must cover child wall time")
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("once")
	sp.End()
	sp.End() // second End must not double-count
	if got := r.Snapshot().Spans[0].Count; got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
}

// TestEndUnwindsAbandonedChildren ends a parent before its child. The
// child is unwound with it, so the child's late End is a no-op and the
// next span opens at the root, not under the closed parent.
func TestEndUnwindsAbandonedChildren(t *testing.T) {
	r := NewRegistry()
	a := r.StartSpan("a")
	b := r.StartSpan("b")
	a.End()
	b.End()
	r.StartSpan("c").End()

	spans := r.Snapshot().Spans
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Name != "c" {
		t.Fatalf("top-level spans = %+v, want a then c", spans)
	}
	if kids := spans[0].Children; len(kids) != 1 || kids[0].Name != "b" || kids[0].Count != 0 {
		t.Errorf("a's children = %+v, want b with no completed cycle", kids)
	}
}

// TestSpansDoNotStopTheWorld pins a span cycle to the clock: StartSpan
// and End must not stop the world (as runtime.ReadMemStats would), so
// 100 cycles add no pause to the runtime's non-GC stop-the-world
// histogram.
func TestSpansDoNotStopTheWorld(t *testing.T) {
	const name = "/sched/pauses/total/other:seconds"
	pauses := func() uint64 {
		sample := []metrics.Sample{{Name: name}}
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindFloat64Histogram {
			t.Fatalf("runtime metric %s is not available", name)
		}
		var n uint64
		for _, c := range sample[0].Value.Float64Histogram().Counts {
			n += c
		}
		return n
	}
	r := NewRegistry()
	before := pauses()
	for i := 0; i < 100; i++ {
		r.StartSpan("stage").End()
	}
	if got := pauses() - before; got != 0 {
		t.Errorf("100 span cycles stopped the world %d times, want 0", got)
	}
}
