package sched

import "sync"

// ShardedMap is a concurrency-safe map sharded across independently
// locked segments, so the memo lookups of executions analyzed
// concurrently do not serialize on one mutex. The zero value is not usable; use
// NewShardedMap. Shard selection is by the caller-supplied hash — for
// keys that are already uniform digests (the classifier's live-in
// fingerprints) the hash is just a prefix read, so a lookup costs one
// mutex plus one map operation on 1/shards of the key space.
//
// The map is insert-only by design: the memoization caches built on it
// never invalidate entries (see docs/PERFORMANCE.md for why that is
// sound), so there is no Delete and no iteration — just Load, Store,
// and the Len the cache's bytes gauge needs.
type ShardedMap[K comparable, V any] struct {
	shards []mapShard[K, V]
	hash   func(K) uint64
}

type mapShard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// NewShardedMap returns a map with the given shard count (values below
// one mean one shard) distributing keys by hash.
func NewShardedMap[K comparable, V any](shards int, hash func(K) uint64) *ShardedMap[K, V] {
	if shards < 1 {
		shards = 1
	}
	sm := &ShardedMap[K, V]{shards: make([]mapShard[K, V], shards), hash: hash}
	for i := range sm.shards {
		sm.shards[i].m = make(map[K]V)
	}
	return sm
}

func (sm *ShardedMap[K, V]) shard(k K) *mapShard[K, V] {
	return &sm.shards[sm.hash(k)%uint64(len(sm.shards))]
}

// Load returns the value stored under k, if any.
func (sm *ShardedMap[K, V]) Load(k K) (V, bool) {
	s := sm.shard(k)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// Store inserts k→v and reports whether the key was new. An existing
// key keeps its old value: concurrent workers that computed the same
// entry race benignly, and first-writer-wins keeps a Load that follows
// a Store stable.
func (sm *ShardedMap[K, V]) Store(k K, v V) bool {
	s := sm.shard(k)
	s.mu.Lock()
	_, exists := s.m[k]
	if !exists {
		s.m[k] = v
	}
	s.mu.Unlock()
	return !exists
}

// Len returns the total number of entries across all shards.
func (sm *ShardedMap[K, V]) Len() int {
	n := 0
	for i := range sm.shards {
		s := &sm.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
