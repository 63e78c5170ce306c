package sched

import (
	"sync"
	"testing"
)

func TestShardedMapBasic(t *testing.T) {
	m := NewShardedMap[uint64, string](8, func(k uint64) uint64 { return k })
	if _, ok := m.Load(1); ok {
		t.Fatal("empty map reported a hit")
	}
	if !m.Store(1, "a") {
		t.Fatal("first Store should report a new key")
	}
	if m.Store(1, "b") {
		t.Fatal("second Store of the same key should not report new")
	}
	v, ok := m.Load(1)
	if !ok || v != "a" {
		t.Fatalf("Load(1) = %q, %v; want first-writer value \"a\"", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestShardedMapShardCountClamped(t *testing.T) {
	m := NewShardedMap[int, int](0, func(k int) uint64 { return uint64(k) })
	m.Store(7, 7)
	if v, ok := m.Load(7); !ok || v != 7 {
		t.Fatalf("single-shard map lost its entry: %d, %v", v, ok)
	}
}

func TestShardedMapConcurrent(t *testing.T) {
	m := NewShardedMap[int, int](16, func(k int) uint64 { return uint64(k) })
	const n = 1000
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				m.Store(i, i*2)
				if v, ok := m.Load(i); !ok || v != i*2 {
					t.Errorf("Load(%d) = %d, %v", i, v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
}
