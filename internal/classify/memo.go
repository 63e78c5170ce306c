package classify

import (
	"encoding/binary"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/vproc"
)

// Memo is the dual-order replay cache: vproc results keyed by live-in
// fingerprint (vproc.Fingerprint). Equal fingerprints are guaranteed
// equal results, so a hit returns the stored {Outcome, FailReason,
// Diffs} verbatim and skips both region replays.
//
// The cache is sharded and concurrency-safe: the classification workers
// of one Run share it without coordination beyond a per-shard mutex,
// and one Memo can be shared across executions (core.AnalyzeLogsInstrumented
// wires one per batch) — fingerprints are content hashes, so instances from
// different executions of the same program collide exactly when their
// replay inputs are identical. Entries are never invalidated: a
// fingerprint covers everything the replay can observe, so a cached
// result cannot go stale (docs/PERFORMANCE.md spells out the
// invariant). Concurrent misses on the same fingerprint may both
// compute; both compute the same result and the first writer wins.
//
// A Memo can additionally be backed by a second-level persistent cache
// (NewMemoBacked): lookups that miss in memory fall through to the
// backing, and stored results are written through, so replay verdicts
// survive process restarts. memostore.Store is the shipped backing.
//
// The zero value is not usable; use NewMemo.
type Memo struct {
	m       *sched.ShardedMap[vproc.Fingerprint, vproc.Result]
	backing Backing
	hits    atomic.Uint64
	misses  atomic.Uint64
	bytes   atomic.Uint64
}

// Backing is a second-level result cache behind the in-memory Memo —
// typically persistent (memostore.Store implements it). Implementations
// must be safe for concurrent use and must honor the memo invariant:
// a Get hit for a fingerprint returns a result equal to what was Put
// under it (equal fingerprints imply equal results, so any faithful
// store qualifies). A backing that loses or rejects entries is fine —
// that is a miss, and the replay recomputes.
type Backing interface {
	Get(vproc.Fingerprint) (vproc.Result, bool)
	Put(vproc.Fingerprint, vproc.Result)
}

// memoShards is sized for a worker pool, not for the key space: enough
// shards that GOMAXPROCS-ish workers rarely contend on one mutex.
const memoShards = 64

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
	return &Memo{
		m: sched.NewShardedMap[vproc.Fingerprint, vproc.Result](memoShards, func(k vproc.Fingerprint) uint64 {
			// Fingerprints are uniform sha256 digests; any 8 bytes shard evenly.
			return binary.LittleEndian.Uint64(k[:8])
		}),
	}
}

// NewMemoBacked returns an empty in-memory cache layered over b:
// misses fall through to b.Get (a backing hit is promoted into memory
// and counted as a memo hit), and newly stored results are written
// through with b.Put. A nil b is exactly NewMemo.
func NewMemoBacked(b Backing) *Memo {
	m := NewMemo()
	m.backing = b
	return m
}

// Lookup returns the cached result for fp, counting the hit or miss.
// With a backing attached, an in-memory miss consults it before being
// declared a miss.
func (m *Memo) Lookup(fp vproc.Fingerprint) (vproc.Result, bool) {
	res, ok := m.m.Load(fp)
	if ok {
		m.hits.Add(1)
		return res, true
	}
	if m.backing != nil {
		if res, ok := m.backing.Get(fp); ok {
			// Promote without writing back: the backing already holds
			// the entry, so only the in-memory layer needs it.
			m.storeLocal(fp, res)
			m.hits.Add(1)
			return res, true
		}
	}
	m.misses.Add(1)
	return res, false
}

// Store caches res under fp. First writer wins; later writers of the
// same fingerprint (concurrent misses) are dropped, which is sound
// because equal fingerprints imply equal results. With a backing
// attached, a first write is also written through to it.
func (m *Memo) Store(fp vproc.Fingerprint, res vproc.Result) {
	if m.storeLocal(fp, res) && m.backing != nil {
		m.backing.Put(fp, res)
	}
}

// storeLocal inserts into the in-memory layer only, reporting whether
// this call was the first writer.
func (m *Memo) storeLocal(fp vproc.Fingerprint, res vproc.Result) bool {
	if m.m.Store(fp, res) {
		m.bytes.Add(uint64(memoEntryBytes + len(res.FailReason) + memoDiffBytes*len(res.Diffs)))
		return true
	}
	return false
}

// Hits returns the lifetime hit count.
func (m *Memo) Hits() uint64 { return m.hits.Load() }

// Misses returns the lifetime miss count.
func (m *Memo) Misses() uint64 { return m.misses.Load() }

// Bytes returns the approximate retained size of the cached results.
func (m *Memo) Bytes() uint64 { return m.bytes.Load() }

// oracleSalts distinguishes the oracle configurations of successive
// classification passes: oracle answers depend on the whole execution,
// so oracle-mode fingerprints are only shareable within one Run (see
// vproc.Fingerprinter.Instance).
var oracleSalts atomic.Uint64

// countCachedReplay replays a cache hit's effect on the vproc.* stage
// counters, exactly as vproc.Analyze would have counted the
// live replay. This keeps every counter except classify.memo.* (and
// timing) identical between memo-on and memo-off runs — the equivalence
// the suite tests pin down. The failed order is recovered from the
// FailReason prefix runOrder always emits.
func countCachedReplay(reg *obs.Registry, res vproc.Result) {
	reg.Counter("vproc.instances_analyzed").Inc()
	reg.Counter("vproc.order_replays").Add(2)
	switch res.Outcome {
	case vproc.ReplayFailure:
		if strings.HasPrefix(res.FailReason, "original order: ") {
			reg.Counter("vproc.order_failures_original").Inc()
		} else {
			reg.Counter("vproc.order_failures_alternative").Inc()
		}
	case vproc.StateChange:
		reg.Counter("vproc.liveout_diffs").Add(uint64(len(res.Diffs)))
	}
}
