package obs

import "strconv"

// Fork returns a worker-local view of the registry for one concurrently
// executing pipeline stage. Counters, gauges, and histograms resolve to
// the base registry — they are goroutine-safe and every worker should
// accumulate into the shared namespace — while spans started on the
// fork build a private tree, keeping the not-goroutine-safe span
// machinery single-owner. When the worker is done, Adopt folds the
// private tree back into the base ladder.
//
// Fork of a Fork views the same base. Fork of nil is nil, preserving
// the nil-is-off rule across a fan-out: forking a disabled registry
// hands every worker a disabled registry.
// A fork additionally gets its own timeline lane (when the base has a
// timeline) and a worker-tagged view of the base logger, so events and
// log records from concurrent workers stay attributable.
func (r *Registry) Fork() *Registry {
	if r == nil {
		return nil
	}
	f := &Registry{parent: r.base(), root: &Span{}}
	f.cur = f.root
	if tl := f.parent.tl; tl != nil {
		f.lane = tl.newLane("")
		f.lane.mu.Lock()
		f.lane.label = "worker " + strconv.Itoa(f.lane.id)
		f.lane.mu.Unlock()
	}
	if l := f.parent.Logger(); l != nopLogger {
		if f.lane != nil {
			f.forkLogger = l.With("worker", f.lane.id)
		} else {
			f.forkLogger = l
		}
	}
	return f
}

// Adopt folds a fork's completed span tree into r's innermost active
// span, merging nodes by name exactly as sequential same-name
// StartSpans do — a suite that fans 18 executions across workers still
// renders one compact replay/detect/classify ladder. Call Adopt only
// after the fork's goroutine has finished (spans still active in the
// fork have not folded their in-flight cycle and are skipped), and at
// most once per fork; adopting forks in a fixed order keeps the span
// tree's first-start ordering deterministic. No-op when either side is
// nil.
func (r *Registry) Adopt(f *Registry) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	adoptSpans(r, r.cur, f.root)
}

// adoptSpans merges src's children into dst by name, accumulating
// completed-cycle totals and recursing into grandchildren.
func adoptSpans(r *Registry, dst, src *Span) {
	for _, cs := range src.order {
		ds := dst.children[cs.name]
		if ds == nil {
			ds = &Span{name: cs.name, parent: dst, reg: r}
			if dst.children == nil {
				dst.children = make(map[string]*Span)
			}
			dst.children[cs.name] = ds
			dst.order = append(dst.order, ds)
		}
		ds.count += cs.count
		ds.nanos += cs.nanos
		adoptSpans(r, ds, cs)
	}
}
