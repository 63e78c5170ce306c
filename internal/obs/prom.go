package obs

import (
	"fmt"
	"sort"
	"strings"
)

// promNamespace prefixes every exported metric so a shared Prometheus
// server can tell this pipeline's series apart.
const promNamespace = "racereplay"

// Prometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` comment per metric family, then
// its samples. Dot-separated internal names map to underscore families
// under the "racereplay" namespace; counters gain the conventional
// `_total` suffix; histograms export as summaries (quantiles + _sum +
// _count); spans export as two labeled families, wall seconds and
// completed runs, keyed by the span's slash-joined path.
func (s Snapshot) Prometheus() string {
	var b strings.Builder

	for _, name := range sortedKeys(s.Counters) {
		fam := promName(name) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", fam, fam, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fam := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", fam, fam, promFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fam := promName(name)
		fmt.Fprintf(&b, "# TYPE %s summary\n", fam)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %s\n", fam, promFloat(h.P50))
		fmt.Fprintf(&b, "%s{quantile=\"0.9\"} %s\n", fam, promFloat(h.P90))
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %s\n", fam, promFloat(h.P99))
		fmt.Fprintf(&b, "%s_sum %d\n", fam, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", fam, h.Count)
	}

	type flatSpan struct {
		path string
		span SpanSnapshot
	}
	var flat []flatSpan
	var walk func(prefix string, spans []SpanSnapshot)
	walk = func(prefix string, spans []SpanSnapshot) {
		for _, sp := range spans {
			path := sp.Name
			if prefix != "" {
				path = prefix + "/" + sp.Name
			}
			flat = append(flat, flatSpan{path: path, span: sp})
			walk(path, sp.Children)
		}
	}
	walk("", s.Spans)
	sort.Slice(flat, func(i, j int) bool { return flat[i].path < flat[j].path })
	if len(flat) > 0 {
		secs := promNamespace + "_span_seconds"
		runs := promNamespace + "_span_runs_total"
		fmt.Fprintf(&b, "# TYPE %s gauge\n", secs)
		for _, f := range flat {
			fmt.Fprintf(&b, "%s{span=%q} %s\n", secs, f.path, promFloat(float64(f.span.Nanos)/1e9))
		}
		fmt.Fprintf(&b, "# TYPE %s counter\n", runs)
		for _, f := range flat {
			fmt.Fprintf(&b, "%s{span=%q} %d\n", runs, f.path, f.span.Count)
		}
	}
	return b.String()
}

// promName sanitizes a dot-separated internal metric name into a legal
// Prometheus family name under the namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString(promNamespace)
	b.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9' && b.Len() > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a float the way the exposition format expects
// (no exponent surprises for the common small values).
func promFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
