package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// tinyScale runs every workload in about a second.
var tinyScale = scale{SuiteSeeds: 2, RecordSeeds: 2, Programs: 16, ServeRate: 10, ServeBurst: 8, SetupReps: 2}

type catalogEntry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readCatalog loads the metric catalog BENCHMARK.json declares.
func readCatalog(t *testing.T) (endToEnd, perLayer []catalogEntry) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []catalogEntry `json:"end_to_end"`
		PerLayer []catalogEntry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf.EndToEnd, bf.PerLayer
}

// TestWorkloadsSmoke runs every workload at a tiny scale, untraced and
// traced. Each run must emit every metric BENCHMARK.json names, finite
// and with its unit (an end-to-end metric also above zero), pass every
// oracle, and (traced) write a Chrome trace that obs.ValidateTrace
// accepts.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := readCatalog(t)
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			e := &env{seed: 3, scale: tinyScale, work: t.TempDir()}
			rec, err := runWorkload(w, e, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v", w.name, traced,
					rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, rec.Meta.Errors)
			}
			if len(rec.Result.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(rec.Result.Metrics), len(want))
			}
			for _, c := range want {
				m, ok := rec.Result.Metrics[c.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, c.Name)
				case m.Unit != c.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", w.name, traced, c.Name, m.Unit, c.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (!traced && m.Value == 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, c.Name, m.Value)
				}
			}
			if traced {
				data, err := os.ReadFile(filepath.Join(e.work, fmt.Sprintf("%s-seed%d", w.name, e.seed), "trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := obs.ValidateTrace(data); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

// TestJudge pins the -compare verdicts and the quartile method.
func TestJudge(t *testing.T) {
	if q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want Python's [2.75 5.5 8.25]", q)
	}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		b            []float64
		higherBetter bool
		want         string
	}{
		{shift(1.01), false, "ok"},
		{shift(1.2), false, "worse"},
		{shift(0.8), false, "better"},
		{shift(0.8), true, "worse"},
		{noisy, false, "unresolved"},
		{shift(0.5), false, "better"},
	} {
		if got := judge(base, c.b, 0.1, c.higherBetter); got != c.want {
			t.Errorf("judge(base, %v, higherBetter=%v) = %s, want %s", c.b, c.higherBetter, got, c.want)
		}
	}
}
