package obs

import "time"

// Span is one named stage of the pipeline. Spans nest (a suite span
// contains record/replay/detect/classify spans) and merge by name: the
// second StartSpan("record") under the same parent accumulates into the
// first span's totals instead of growing the tree, so an 18-scenario
// suite run still renders as one compact stage tree.
//
// Each start/end cycle accumulates the stage's wall time and nothing
// else: a span claims only what belongs to its own stage. Allocation is
// process-wide, and workers run stages side by side, so per-stage
// memory comes from the allocation profile (/debug/pprof/allocs), which
// attributes it by call stack.
type Span struct {
	name     string
	parent   *Span
	children map[string]*Span
	order    []*Span // children in first-start order
	reg      *Registry

	count uint64 // completed start/end cycles
	nanos int64  // accumulated wall time

	// In-flight state of the current cycle.
	started time.Time
	active  bool
}

// StartSpan opens (or re-opens) the named child of the innermost active
// span and makes it current. Returns nil on a nil registry.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := r.cur
	if parent.children == nil {
		parent.children = make(map[string]*Span)
	}
	s := parent.children[name]
	if s == nil {
		s = &Span{name: name, parent: parent, reg: r}
		parent.children[name] = s
		parent.order = append(parent.order, s)
	}
	s.started = time.Now()
	s.active = true
	r.cur = s
	r.emitSpan(EvBegin, name)
	return s
}

// End closes the span, folding the cycle's wall time into its totals and
// restoring its parent as current. Ending a span that is not innermost
// first unwinds its abandoned descendants: they stop being active
// without folding their open cycle, so a late End on one of them is a
// no-op. No-op on nil or when the span is not active.
func (s *Span) End() {
	if s == nil || !s.active {
		return
	}
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	for c := r.cur; c != nil && c != s; c = c.parent {
		c.active = false
	}
	s.count++
	s.nanos += time.Since(s.started).Nanoseconds()
	s.active = false
	r.cur = s.parent
	r.emitSpan(EvEnd, s.name)
}

// Time runs f inside a span named name (a convenience for one-shot
// stages). Safe on a nil registry: f still runs, untimed.
func (r *Registry) Time(name string, f func()) {
	sp := r.StartSpan(name)
	f()
	sp.End()
}
