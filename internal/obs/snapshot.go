package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// Snapshot is a point-in-time copy of a registry's state, safe to render
// or serialize while the pipeline keeps running.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanSnapshot               `json:"spans,omitempty"`
}

// HistogramSnapshot summarizes one histogram's distribution.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int     `json:"min"`
	Max   int     `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// SpanSnapshot is one node of the frozen span tree.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	Count    uint64         `json:"count"`
	Nanos    int64          `json:"nanos"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Duration returns the span's accumulated wall time.
func (s SpanSnapshot) Duration() time.Duration { return time.Duration(s.Nanos) }

// Snapshot freezes the registry. A nil registry yields an empty (but
// renderable) snapshot. Snapshotting a Fork reads the shared metric
// namespace plus the fork's private span tree.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	base := r.base()
	base.mu.Lock()
	for name, c := range base.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range base.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range base.hists {
		snap.Histograms[name] = h.snapshot()
	}
	base.mu.Unlock()
	r.mu.Lock()
	snap.Spans = snapshotSpans(r.root)
	r.mu.Unlock()
	return snap
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		hs.Mean = float64(h.sum) / float64(h.count)
	}
	if len(h.samples) > 0 {
		sorted := append([]int(nil), h.samples...)
		sort.Ints(sorted)
		hs.P50 = stats.Percentile(sorted, 50)
		hs.P90 = stats.Percentile(sorted, 90)
		hs.P99 = stats.Percentile(sorted, 99)
	}
	return hs
}

func snapshotSpans(parent *Span) []SpanSnapshot {
	if parent == nil || len(parent.order) == 0 {
		return nil
	}
	out := make([]SpanSnapshot, 0, len(parent.order))
	for _, s := range parent.order {
		out = append(out, SpanSnapshot{
			Name:     s.name,
			Count:    s.count,
			Nanos:    s.nanos,
			Children: snapshotSpans(s),
		})
	}
	return out
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// The snapshot is plain data; this cannot happen.
		return fmt.Sprintf("{\"error\":%q}", err.Error())
	}
	return string(b) + "\n"
}

// Text renders the snapshot as a human-readable report: the span tree
// first (wall time, share of parent, cycles), then counters, gauges, and
// histogram summaries, each sorted by name.
func (s Snapshot) Text() string {
	var b strings.Builder
	if len(s.Spans) > 0 {
		b.WriteString("spans:\n")
		var total int64
		for _, sp := range s.Spans {
			total += sp.Nanos
		}
		writeSpanText(&b, s.Spans, 1, total)
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-44s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-44s %.4g\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			fmt.Fprintf(&b, "  %-44s n=%d sum=%d min=%d p50=%.1f p90=%.1f p99=%.1f max=%d\n",
				name, h.Count, h.Sum, h.Min, h.P50, h.P90, h.P99, h.Max)
		}
	}
	if b.Len() == 0 {
		return "(no metrics recorded)\n"
	}
	return b.String()
}

func writeSpanText(b *strings.Builder, spans []SpanSnapshot, depth int, parentNanos int64) {
	for _, sp := range spans {
		share := ""
		if parentNanos > 0 {
			share = fmt.Sprintf(" %5.1f%%", 100*float64(sp.Nanos)/float64(parentNanos))
		}
		label := strings.Repeat("  ", depth) + sp.Name
		fmt.Fprintf(b, "%-30s %12v%s  x%d\n",
			label, sp.Duration().Round(time.Microsecond), share, sp.Count)
		writeSpanText(b, sp.Children, depth+1, sp.Nanos)
	}
}
