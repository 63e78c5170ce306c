package obs

import (
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

func TestSpanAllocDeltas(t *testing.T) {
	r := NewRegistry()
	var sink [][]byte
	r.Time("alloc-stage", func() {
		for i := 0; i < 64; i++ {
			sink = append(sink, make([]byte, 4096))
		}
	})
	_ = sink
	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("spans = %+v", snap.Spans)
	}
	sp := snap.Spans[0]
	if sp.AllocBytes < 64*4096 {
		t.Errorf("alloc bytes = %d, want >= %d", sp.AllocBytes, 64*4096)
	}
	if sp.Mallocs == 0 {
		t.Error("mallocs not counted")
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
