package obs

import (
	"sync"
	"testing"
)

func TestForkSharesMetricNamespace(t *testing.T) {
	reg := NewRegistry()
	f := reg.Fork()
	f.Counter("x.count").Inc()
	f.Gauge("x.level").Set(2.5)
	f.Histogram("x.h").Observe(7)
	reg.Counter("x.count").Inc()

	snap := reg.Snapshot()
	if got := snap.Counters["x.count"]; got != 2 {
		t.Errorf("counter via fork+base = %d, want 2", got)
	}
	if got := snap.Gauges["x.level"]; got != 2.5 {
		t.Errorf("gauge via fork = %v, want 2.5", got)
	}
	if got := snap.Histograms["x.h"].Count; got != 1 {
		t.Errorf("histogram via fork count = %d, want 1", got)
	}
	// A fork of a fork still resolves to the same base.
	f.Fork().Counter("x.count").Inc()
	if got := reg.Snapshot().Counters["x.count"]; got != 3 {
		t.Errorf("counter via second-level fork = %d, want 3", got)
	}
}

func TestForkSpansArePrivateUntilAdopt(t *testing.T) {
	reg := NewRegistry()
	suite := reg.StartSpan("suite")
	f := reg.Fork()
	sp := f.StartSpan("replay")
	sp.End()
	sp = f.StartSpan("classify")
	sp.End()

	if spans := reg.Snapshot().Spans; len(spans) != 1 || len(spans[0].Children) != 0 {
		t.Fatalf("fork spans leaked into base before Adopt: %+v", spans)
	}
	reg.Adopt(f)
	suite.End()

	snap := reg.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "suite" {
		t.Fatalf("top-level spans = %+v, want one suite span", snap.Spans)
	}
	kids := snap.Spans[0].Children
	if len(kids) != 2 || kids[0].Name != "replay" || kids[1].Name != "classify" {
		t.Fatalf("suite children = %+v, want replay then classify", kids)
	}
	if kids[0].Count != 1 || kids[1].Count != 1 {
		t.Errorf("child counts = %d/%d, want 1/1", kids[0].Count, kids[1].Count)
	}
}

func TestAdoptMergesByNameAcrossForks(t *testing.T) {
	reg := NewRegistry()
	suite := reg.StartSpan("suite")
	var forks []*Registry
	for i := 0; i < 4; i++ {
		f := reg.Fork()
		sp := f.StartSpan("replay")
		inner := f.StartSpan("decode")
		inner.End()
		sp.End()
		forks = append(forks, f)
	}
	for _, f := range forks {
		reg.Adopt(f)
	}
	suite.End()

	snap := reg.Snapshot()
	kids := snap.Spans[0].Children
	if len(kids) != 1 || kids[0].Name != "replay" || kids[0].Count != 4 {
		t.Fatalf("children = %+v, want one replay span with count 4", kids)
	}
	if len(kids[0].Children) != 1 || kids[0].Children[0].Count != 4 {
		t.Fatalf("nested children = %+v, want one decode span with count 4", kids[0].Children)
	}
}

func TestForkAndAdoptNilSafety(t *testing.T) {
	var r *Registry
	f := r.Fork()
	if f != nil {
		t.Fatal("Fork of nil registry should be nil")
	}
	f.Counter("x").Inc()
	f.StartSpan("a").End()
	r.Adopt(f)
	NewRegistry().Adopt(nil)
}

// TestConcurrentForkPublication is the -race check for fan-out metrics:
// many workers publish counters, gauges, histograms, and spans through
// their forks at once, then the driver adopts every tree.
func TestConcurrentForkPublication(t *testing.T) {
	reg := NewRegistry()
	suite := reg.StartSpan("suite")
	const workers, rounds = 8, 200
	forks := make([]*Registry, workers)
	var wg sync.WaitGroup
	for i := range forks {
		forks[i] = reg.Fork()
		wg.Add(1)
		go func(f *Registry) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				f.Counter("work.items").Inc()
				f.Gauge("work.level").Set(float64(j))
				f.Histogram("work.size").Observe(j)
				sp := f.StartSpan("stage")
				sp.End()
			}
		}(forks[i])
	}
	wg.Wait()
	for _, f := range forks {
		reg.Adopt(f)
	}
	suite.End()

	snap := reg.Snapshot()
	if got := snap.Counters["work.items"]; got != workers*rounds {
		t.Errorf("work.items = %d, want %d", got, workers*rounds)
	}
	if got := snap.Histograms["work.size"].Count; got != workers*rounds {
		t.Errorf("work.size count = %d, want %d", got, workers*rounds)
	}
	kids := snap.Spans[0].Children
	if len(kids) != 1 || kids[0].Name != "stage" || kids[0].Count != workers*rounds {
		t.Fatalf("suite children = %+v, want one stage span with count %d", kids, workers*rounds)
	}
}
