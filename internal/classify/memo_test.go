package classify

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vproc"
)

// fakeBacking is an in-memory Backing that records its traffic.
type fakeBacking struct {
	m    map[vproc.Fingerprint]vproc.Result
	gets int
	puts int
}

func newFakeBacking() *fakeBacking {
	return &fakeBacking{m: map[vproc.Fingerprint]vproc.Result{}}
}

func (b *fakeBacking) Get(fp vproc.Fingerprint) (vproc.Result, bool) {
	b.gets++
	res, ok := b.m[fp]
	return res, ok
}

func (b *fakeBacking) Put(fp vproc.Fingerprint, res vproc.Result) {
	b.puts++
	b.m[fp] = res
}

func fpByte(n byte) vproc.Fingerprint {
	var fp vproc.Fingerprint
	fp[0] = n
	return fp
}

// replayCounter returns a replay func that returns res and counts its
// calls in n.
func replayCounter(n *atomic.Int64, res vproc.Result) func() vproc.Result {
	return func() vproc.Result {
		n.Add(1)
		return res
	}
}

func TestMemoBackedWriteThrough(t *testing.T) {
	back := newFakeBacking()
	m := NewMemoBacked(back)
	var replays atomic.Int64
	res := vproc.Result{Outcome: vproc.NoStateChange}
	if _, hit := m.Do(fpByte(1), replayCounter(&replays, res)); hit {
		t.Fatal("first call for a fingerprint hit")
	}
	if replays.Load() != 1 || back.puts != 1 {
		t.Fatalf("replays = %d, backing puts = %d; want 1 and 1 (write-through)", replays.Load(), back.puts)
	}
	if m.Hits() != 0 || m.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d; want 0 and 1", m.Hits(), m.Misses())
	}
	// The second call is an in-memory hit: no replay, no backing traffic.
	if _, hit := m.Do(fpByte(1), replayCounter(&replays, res)); !hit {
		t.Fatal("expected in-memory hit")
	}
	if replays.Load() != 1 || back.gets != 1 || back.puts != 1 {
		t.Fatalf("replays=%d gets=%d puts=%d after an in-memory hit; want 1, 1, 1",
			replays.Load(), back.gets, back.puts)
	}
}

func TestMemoBackedFallthroughAndPromotion(t *testing.T) {
	back := newFakeBacking()
	want := vproc.Result{Outcome: vproc.ReplayFailure, FailReason: "original order: x", OrigFail: "x"}
	back.m[fpByte(2)] = want
	m := NewMemoBacked(back)
	var replays atomic.Int64
	got, hit := m.Do(fpByte(2), replayCounter(&replays, vproc.Result{}))
	if !hit || got.Outcome != want.Outcome || got.FailReason != want.FailReason || got.OrigFail != want.OrigFail {
		t.Fatalf("Do = %+v, %v; want backing entry", got, hit)
	}
	if replays.Load() != 0 {
		t.Fatal("a backing hit replayed")
	}
	if m.Hits() != 1 || m.Misses() != 0 {
		t.Fatalf("hits=%d misses=%d; a backing hit must count as a memo hit", m.Hits(), m.Misses())
	}
	// Promotion: the second call is served from memory.
	m.Do(fpByte(2), replayCounter(&replays, vproc.Result{}))
	if back.gets != 1 {
		t.Fatalf("backing gets = %d, want 1 (promoted after first hit)", back.gets)
	}
	// Promotion must not write back.
	if back.puts != 0 {
		t.Fatalf("backing puts = %d, want 0 (promotion is read-only)", back.puts)
	}
	// A true miss at both levels replays and is a memo miss.
	if _, hit := m.Do(fpByte(3), replayCounter(&replays, vproc.Result{})); hit {
		t.Fatal("unexpected hit")
	}
	if replays.Load() != 1 || m.Misses() != 1 {
		t.Fatalf("replays=%d misses=%d; want 1 and 1", replays.Load(), m.Misses())
	}
	// A backing entry that reads as pending is a miss, not a result
	// that would keep later callers waiting.
	back.m[fpByte(7)] = vproc.Result{Outcome: pendingOutcome}
	if _, hit := m.Do(fpByte(7), replayCounter(&replays, vproc.Result{})); hit {
		t.Fatal("a pending backing entry was served as a hit")
	}
	if got, hit := m.Do(fpByte(7), replayCounter(&replays, vproc.Result{})); !hit || got.Outcome != vproc.NoStateChange {
		t.Fatalf("Do = %+v, %v; want the replayed result from memory", got, hit)
	}
}

func TestMemoNilBackingIsPlainMemo(t *testing.T) {
	m := NewMemoBacked(nil)
	var replays atomic.Int64
	res := vproc.Result{Outcome: vproc.NoStateChange}
	if _, hit := m.Do(fpByte(4), replayCounter(&replays, res)); hit {
		t.Fatal("unexpected hit")
	}
	if _, hit := m.Do(fpByte(4), replayCounter(&replays, res)); !hit {
		t.Fatal("expected hit")
	}
	if replays.Load() != 1 {
		t.Fatalf("replays = %d, want 1", replays.Load())
	}
}

// TestMemoDoReplaysOncePerFingerprint: callers that ask for one
// fingerprint at once share one replay. The replay is held open until
// every caller has started, so the others arrive while it is pending.
func TestMemoDoReplaysOncePerFingerprint(t *testing.T) {
	const n = 8
	m := NewMemo()
	want := vproc.Result{Outcome: vproc.StateChange, Diffs: []vproc.Diff{{Kind: "mem", TID: -1, Index: 7, Orig: 1, Alt: 2}}}
	var replays, hits atomic.Int64
	var started, done sync.WaitGroup
	release := make(chan struct{})
	replay := func() vproc.Result {
		replays.Add(1)
		<-release
		return want
	}
	started.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			started.Done()
			got, hit := m.Do(fpByte(5), replay)
			if hit {
				hits.Add(1)
			}
			if got.Outcome != want.Outcome || len(got.Diffs) != 1 || got.Diffs[0] != want.Diffs[0] {
				t.Errorf("Do = %+v, want %+v", got, want)
			}
		}()
	}
	started.Wait()
	close(release)
	done.Wait()
	if replays.Load() != 1 {
		t.Errorf("replays = %d, want 1", replays.Load())
	}
	if hits.Load() != n-1 {
		t.Errorf("%d calls reported a hit, want %d", hits.Load(), n-1)
	}
	if m.Hits() != n-1 || m.Misses() != 1 {
		t.Errorf("Hits()=%d Misses()=%d, want %d and 1", m.Hits(), m.Misses(), n-1)
	}
}

// TestMemoDoPanicWakesWaiters: a replay that panics clears its pending
// entry and wakes the callers waiting on it, one of which replays in
// its place; the panicking call counts neither a hit nor a miss.
func TestMemoDoPanicWakesWaiters(t *testing.T) {
	const waiters = 4
	m := NewMemo()
	want := vproc.Result{Outcome: vproc.NoStateChange}
	entered := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		m.Do(fpByte(6), func() vproc.Result {
			close(entered)
			<-release
			panic("replay failed")
		})
	}()
	<-entered // the panicking call owns the pending entry

	var replays, hits atomic.Int64
	var started, done sync.WaitGroup
	started.Add(waiters)
	done.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer done.Done()
			started.Done()
			if _, hit := m.Do(fpByte(6), replayCounter(&replays, want)); hit {
				hits.Add(1)
			}
		}()
	}
	started.Wait()
	runtime.Gosched() // let the callers reach the pending entry
	close(release)
	if p := <-panicked; p != "replay failed" {
		t.Fatalf("the caller recovered %v, want the replay's panic to propagate out of Do", p)
	}
	done.Wait()
	if replays.Load() != 1 || hits.Load() != waiters-1 {
		t.Errorf("replays=%d hits=%d after the panic, want 1 and %d", replays.Load(), hits.Load(), waiters-1)
	}
	if m.Hits() != waiters-1 || m.Misses() != 1 {
		t.Errorf("Hits()=%d Misses()=%d, want %d and 1", m.Hits(), m.Misses(), waiters-1)
	}
}
