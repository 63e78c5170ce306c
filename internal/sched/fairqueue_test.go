package sched

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestFairQueueRoundRobin(t *testing.T) {
	q := NewFairQueue[string](16, 8)
	// Tenant a floods; tenant b trickles. Pop must alternate.
	for _, v := range []string{"a1", "a2", "a3"} {
		if err := q.Push("a", v); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push("b", "b1"); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue empty early")
		}
		got = append(got, v)
	}
	want := []string{"a1", "b1", "a2", "a3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestFairQueuePerTenantFIFO(t *testing.T) {
	q := NewFairQueue[int](64, 32)
	for i := 0; i < 10; i++ {
		q.Push("t", i)
	}
	for i := 0; i < 10; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d, %v", i, v, ok)
		}
	}
}

func TestFairQueueCaps(t *testing.T) {
	q := NewFairQueue[int](4, 2)
	if err := q.Push("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("a", 2); err != nil {
		t.Fatal(err)
	}
	// Tenant cap first: a third item for a full tenant is ErrTenantFull
	// even though the queue has room.
	if err := q.Push("a", 3); !errors.Is(err, ErrTenantFull) {
		t.Fatalf("tenant overflow = %v, want ErrTenantFull", err)
	}
	q.Push("b", 1)
	q.Push("b", 2)
	// Global cap: the queue holds 4 items, any tenant now sees
	// ErrQueueFull.
	if err := q.Push("c", 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("global overflow = %v, want ErrQueueFull", err)
	}
	// Draining one item frees global room.
	q.Pop()
	if err := q.Push("c", 1); err != nil {
		t.Fatalf("push after pop = %v", err)
	}
}

func TestFairQueueDrainAbandonsBacklog(t *testing.T) {
	q := NewFairQueue[string](8, 8)
	q.Push("a", "a1")
	q.Push("b", "b1")
	q.Push("a", "a2")
	left := q.Drain()
	if len(left) != 3 {
		t.Fatalf("drained %d items, want 3", len(left))
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop after drain reported ok")
	}
	if err := q.Push("a", "x"); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("push after drain = %v, want ErrQueueClosed", err)
	}
}

func TestFairQueueBlockedPopWakesOnDrain(t *testing.T) {
	q := NewFairQueue[int](8, 8)
	done := make(chan bool, 1)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Drain()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("blocked pop returned an item from an empty queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked pop did not wake on Drain")
	}
}

func TestFairQueueConcurrent(t *testing.T) {
	q := NewFairQueue[int](1024, 512)
	const producers, items = 4, 100
	var wg sync.WaitGroup
	wg.Add(producers)
	tenants := []string{"a", "b", "c", "d"}
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				for q.Push(tenants[p], p*items+i) != nil {
					time.Sleep(time.Millisecond)
				}
			}
		}(p)
	}
	seen := map[int]bool{}
	var mu sync.Mutex
	var cg sync.WaitGroup
	cg.Add(2)
	for c := 0; c < 2; c++ {
		go func() {
			defer cg.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("item %d popped twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Drain takes what the consumers have not popped yet, through the
	// same dequeue step, while they may still be popping.
	left := q.Drain()
	cg.Wait()
	for _, v := range left {
		if seen[v] {
			t.Errorf("item %d popped and drained", v)
		}
		seen[v] = true
	}
	if len(seen) != producers*items {
		t.Fatalf("popped %d unique items, want %d", len(seen), producers*items)
	}
}
