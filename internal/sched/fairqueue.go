package sched

import (
	"errors"
	"sync"
)

// FairQueue errors, returned by Push. They are sentinel values so the
// ingest layer can map each to its own HTTP status and Retry-After
// hint.
var (
	// ErrQueueFull: the global capacity is exhausted — the service as a
	// whole is overloaded.
	ErrQueueFull = errors.New("sched: queue full")
	// ErrTenantFull: this tenant's share is exhausted while the queue
	// as a whole still has room — the noisy-tenant backpressure signal.
	ErrTenantFull = errors.New("sched: tenant queue full")
	// ErrQueueClosed: the queue stopped accepting work (shutdown).
	ErrQueueClosed = errors.New("sched: queue closed")
)

// FairQueue is a bounded, multi-tenant FIFO for long-running services:
// producers Push under a per-tenant and a global cap (exceeding either
// is an explicit error, the caller's backpressure signal, never a
// block), and consumers Pop tenants round-robin — each tenant's items
// stay FIFO among themselves, but a tenant with a thousand queued jobs
// cannot starve a tenant with one.
//
// Unlike ForEachFork's fixed batch, a FairQueue is built for indefinite
// operation: it never finishes on its own. Drain shuts it down: it stops
// intake and hands the backlog back, to be journaled for the next
// process.
type FairQueue[T any] struct {
	mu        sync.Mutex
	cond      *sync.Cond
	tenants   map[string][]T
	ring      []string // tenants with queued items, in arrival order
	next      int      // ring cursor for round-robin Pop
	total     int
	totalCap  int
	tenantCap int
	closed    bool
}

// NewFairQueue returns a queue holding at most totalCap items overall
// and tenantCap per tenant. Caps below one fall back to defaults
// (totalCap 64; tenantCap totalCap/4, at least 1), mirroring how
// Normalize treats the jobs knobs.
func NewFairQueue[T any](totalCap, tenantCap int) *FairQueue[T] {
	if totalCap < 1 {
		totalCap = 64
	}
	if tenantCap < 1 {
		tenantCap = totalCap / 4
		if tenantCap < 1 {
			tenantCap = 1
		}
	}
	q := &FairQueue[T]{
		tenants:   map[string][]T{},
		totalCap:  totalCap,
		tenantCap: tenantCap,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues v for tenant, or reports why it cannot: ErrQueueClosed,
// ErrQueueFull, or ErrTenantFull. It never blocks.
func (q *FairQueue[T]) Push(tenant string, v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if q.total >= q.totalCap {
		return ErrQueueFull
	}
	items := q.tenants[tenant]
	if len(items) >= q.tenantCap {
		return ErrTenantFull
	}
	if len(items) == 0 {
		q.ring = append(q.ring, tenant)
	}
	q.tenants[tenant] = append(items, v)
	q.total++
	q.cond.Signal()
	return nil
}

// Pop blocks until an item is available and returns it, cycling tenants
// round-robin. It returns ok == false once the queue is drained — the
// consumer's signal to exit.
func (q *FairQueue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.total == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.total == 0 {
		return v, false
	}
	return q.dequeue(), true
}

// dequeue removes the next item in round-robin order: the oldest item of
// the tenant under the ring cursor. A tenant left with no items leaves
// the ring. The caller holds q.mu, and the queue is not empty.
func (q *FairQueue[T]) dequeue() T {
	if q.next >= len(q.ring) {
		q.next = 0
	}
	tenant := q.ring[q.next]
	items := q.tenants[tenant]
	v := items[0]
	q.total--
	if len(items) == 1 {
		delete(q.tenants, tenant)
		q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		// q.next now indexes the following tenant; keep it for the
		// round-robin step.
	} else {
		q.tenants[tenant] = items[1:]
		q.next++
	}
	return v
}

// Len returns the number of queued items.
func (q *FairQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// Drain closes the queue and removes the backlog, returning it in
// round-robin order. Blocked and future Pops return ok == false
// immediately; in-flight items (already popped) are unaffected. This is
// the crash-consistent shutdown shape: the caller already journaled
// every accepted item, so abandoning the backlog loses nothing — the
// next process resumes it.
func (q *FairQueue[T]) Drain() []T {
	q.mu.Lock()
	q.closed = true
	var out []T
	for q.total > 0 {
		out = append(out, q.dequeue())
	}
	q.mu.Unlock()
	q.cond.Broadcast()
	return out
}
