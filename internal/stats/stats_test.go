package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownSample(t *testing.T) {
	s := Summarize([]int{1, 2, 3, 4, 100})
	if s.N != 5 || s.Min != 1 || s.Max != 100 || s.Sum != 110 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 22 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Median != 3 {
		t.Errorf("median = %v", s.Median)
	}
	if s.P90 < 4 || s.P90 > 100 {
		t.Errorf("p90 = %v", s.P90)
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Error("string missing n")
	}
}

func TestSummarizeEmptyAndSingleton(t *testing.T) {
	if got := Summarize(nil); got.N != 0 || got.String() != "n=0" {
		t.Errorf("empty = %+v", got)
	}
	s := Summarize([]int{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Mean != 7 || s.P90 != 7 {
		t.Errorf("singleton = %+v", s)
	}
}

func TestSummaryProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]int, 1+int(n)%40)
		for i := range xs {
			xs[i] = r.Intn(1000)
		}
		s := Summarize(xs)
		// Order statistics bracket the center measures.
		if s.Median < float64(s.Min) || s.Median > float64(s.Max) {
			return false
		}
		if s.Mean < float64(s.Min) || s.Mean > float64(s.Max) {
			return false
		}
		if s.P90 < s.Median || s.P90 > float64(s.Max) {
			return false
		}
		// Summarize must not mutate its input.
		return s.N == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []int{5, 1, 4}
	Summarize(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Error("input mutated")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []int{0, 10}
	if got := Percentile(sorted, 50); got != 5 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(sorted, 0); got != 0 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(sorted, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
}

// TestPercentileMonotone: percentiles never decrease with p, and each
// lies between the two samples it interpolates.
func TestPercentileMonotone(t *testing.T) {
	// a*(1-f) + b*f rounds 41 to 41.000000000000007 here.
	if got := Percentile([]int{41, 41}, 20); got != 41 {
		t.Errorf("Percentile([41 41], 20) = %v, want 41", got)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]int, 1+r.Intn(30))
		for i := range xs {
			xs[i] = r.Intn(100)
		}
		sort.Ints(xs)
		prev := -1.0
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			rank := p / 100 * float64(len(xs)-1)
			lo, hi := xs[int(math.Floor(rank))], xs[int(math.Ceil(rank))]
			if v < prev || v < float64(lo) || v > float64(hi) {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
