package classify

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vproc"
)

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
