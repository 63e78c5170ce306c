// Package stats provides the small descriptive-statistics helpers the
// reporting layer uses to summarize per-race instance distributions
// (Figures 3–5) and performance samples.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of non-negative integers.
type Summary struct {
	N      int
	Min    int
	Max    int
	Sum    int
	Mean   float64
	Median float64
	P90    float64
}

// Summarize computes a Summary (zero value for an empty sample).
func Summarize(xs []int) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	s := Summary{
		N:   len(sorted),
		Min: sorted[0],
		Max: sorted[len(sorted)-1],
	}
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = float64(s.Sum) / float64(s.N)
	s.Median = Percentile(sorted, 50)
	s.P90 = Percentile(sorted, 90)
	return s
}

// Percentile interpolates the p-th percentile (0..100) of a sorted sample.
func Percentile(sorted []int, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return float64(sorted[0])
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return float64(sorted[lo])
	}
	// a + (b-a)*f stays within [a, b]; a*(1-f) + b*f can round past b
	// when a == b.
	a, b := float64(sorted[lo]), float64(sorted[hi])
	return a + (b-a)*(rank-float64(lo))
}

// String renders the summary on one line.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%d median=%.1f mean=%.1f p90=%.1f max=%d total=%d",
		s.N, s.Min, s.Median, s.Mean, s.P90, s.Max, s.Sum)
}

// Bar is the length of v's bar in a chart where max spans width
// characters: at least 1 for any positive v, and 0 when max is 0.
func Bar(v, max, width int) int {
	if max == 0 {
		return 0
	}
	n := v * width / max
	if n == 0 && v > 0 {
		n = 1
	}
	return n
}
