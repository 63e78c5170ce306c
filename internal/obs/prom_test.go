package obs

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the Prometheus golden file")

// goldenSnapshot is hand-built so the rendering is fully deterministic
// (live spans carry wall-clock time).
func goldenSnapshot() Snapshot {
	return Snapshot{
		Counters: map[string]uint64{
			"record.loads_logged":   128,
			"replay.regions":        42,
			"detect.region_pairs":   1000,
			"classify.instances_sc": 3,
			"report.races_rendered": 7,
		},
		Gauges: map[string]float64{
			"classify.memo.bytes": 18432,
		},
		Histograms: map[string]HistogramSnapshot{
			"classify.instances_per_race": {Count: 4, Sum: 22, Min: 1, Max: 16, Mean: 5.5, P50: 2.5, P90: 12.4, P99: 15.64},
		},
		Spans: []SpanSnapshot{
			{
				Name: "suite", Count: 1, Nanos: 5_000_000,
				Children: []SpanSnapshot{
					{Name: "record", Count: 18, Nanos: 1_500_000},
					{Name: "replay", Count: 18, Nanos: 2_500_000},
				},
			},
		},
	}
}

func TestPrometheusGolden(t *testing.T) {
	got := goldenSnapshot().Prometheus()
	path := filepath.Join("testdata", "snapshot.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("Prometheus output drifted from golden file %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// Exposition-format line grammar (text format 0.0.4): comment lines, or
// `name[{labels}] value` sample lines.
var (
	promComment = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	promSample  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (-?[0-9.]+(e[+-]?[0-9]+)?|NaN|[+-]Inf)$`)
)

// TestPrometheusParses validates a live registry's rendering line by
// line against the exposition format, and checks the structural
// conventions (counters end in _total, every family has a TYPE line).
func TestPrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("record.loads_logged").Add(10)
	r.Counter("detect.races").Add(2)
	r.Gauge("record.bits_per_instr").Set(1.625)
	h := r.Histogram("classify.per_race")
	h.Observe(1)
	h.Observe(5)
	r.Time("pipeline", func() {
		r.Time("record", func() {})
		r.Time("replay", func() {})
	})

	out := r.Snapshot().Prometheus()
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !promComment.MatchString(line) {
				t.Errorf("bad comment line: %q", line)
			}
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("bad sample line: %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[family] {
			t.Errorf("sample %q has no TYPE declaration", name)
		}
	}
	for _, want := range []string{
		"racereplay_record_loads_logged_total 10",
		"racereplay_detect_races_total 2",
		"racereplay_record_bits_per_instr 1.625",
		`racereplay_classify_per_race{quantile="0.5"}`,
		`racereplay_span_seconds{span="pipeline/record"}`,
		`racereplay_span_runs_total{span="pipeline"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
