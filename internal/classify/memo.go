package classify

import (
	"sync"

	"repro/internal/vproc"
)

// Memo is the dual-order replay cache: vproc results keyed by live-in
// fingerprint (vproc.Fingerprint). Equal fingerprints are guaranteed
// equal results, so a hit returns the stored {Outcome, FailReason,
// Diffs} verbatim and skips both region replays.
//
// Each fingerprint is replayed at most once (Do): the first caller
// replays it, and callers that arrive meanwhile wait for that result
// instead of replaying too. One Memo can be shared across executions
// analyzed concurrently (core.AnalyzeLogsInstrumented shares one across
// the audited items of a batch) — fingerprints are content hashes, so
// instances from different executions of the same program collide
// exactly when their replay inputs are identical — and the hit/miss
// split is then a function of the batch alone: one miss per distinct
// fingerprint, at any worker count. Entries are never invalidated: a
// fingerprint covers everything the replay can observe, so a cached
// result cannot go stale (docs/PERFORMANCE.md spells out the
// invariant). Nothing persists a Memo: its results die with the
// process.
//
// The zero value is not usable; use NewMemo. A nil *Memo caches
// nothing: its Do just replays.
type Memo struct {
	mu sync.Mutex
	// done is broadcast whenever a pending entry is resolved or cleared;
	// the callers waiting on one recheck their fingerprint.
	done sync.Cond
	// results holds every stored result, and a pendingOutcome entry for
	// each fingerprint whose first caller is still replaying it.
	results map[vproc.Fingerprint]vproc.Result

	hits, misses, bytes uint64
}

// pendingOutcome marks a results entry whose replay is in flight.
const pendingOutcome vproc.Outcome = -1

// Approximate per-entry retained sizes for the bytes gauge, in bytes:
// the fingerprint key plus the Result header (Outcome + string header +
// slice header), map bucket overhead ignored; each Diff adds its struct
// size (string header + TID + three uint64s). The Kind strings are
// shared literals, so only their headers count.
const (
	memoEntryBytes = 32 + 48
	memoDiffBytes  = 48
)

// NewMemo returns an empty replay cache.
func NewMemo() *Memo {
	m := &Memo{results: make(map[vproc.Fingerprint]vproc.Result)}
	m.done.L = &m.mu
	return m
}

// Do returns the result for fp and whether the cache served it. The
// first caller for a fingerprint calls replay (a miss); every other
// caller is a hit, and one that arrives while the first is still
// replaying waits for its result. If replay panics, the pending entry
// is cleared and the waiters woken, so one of them replays in turn; the
// panicking call counts neither a hit nor a miss. On a nil *Memo, Do
// just calls replay.
func (m *Memo) Do(fp vproc.Fingerprint, replay func() vproc.Result) (res vproc.Result, hit bool) {
	if m == nil {
		return replay(), false
	}
	m.mu.Lock()
	res, hit = m.results[fp]
	for hit && res.Outcome == pendingOutcome {
		m.done.Wait()
		res, hit = m.results[fp]
	}
	if hit {
		m.hits++
		m.mu.Unlock()
		return res, true
	}
	m.results[fp] = vproc.Result{Outcome: pendingOutcome}
	m.mu.Unlock()

	resolved := false
	defer func() {
		if !resolved {
			m.mu.Lock()
			delete(m.results, fp)
			m.mu.Unlock()
			m.done.Broadcast()
		}
	}()
	res = replay()
	m.mu.Lock()
	m.results[fp] = res
	m.bytes += uint64(memoEntryBytes + len(res.FailReason) + memoDiffBytes*len(res.Diffs))
	m.misses++
	resolved = true
	m.mu.Unlock()
	m.done.Broadcast()
	return res, false
}

// Hits returns the lifetime hit count.
func (m *Memo) Hits() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits
}

// Misses returns the lifetime miss count.
func (m *Memo) Misses() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.misses
}

// Bytes returns the approximate retained size of the cached results.
func (m *Memo) Bytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}
