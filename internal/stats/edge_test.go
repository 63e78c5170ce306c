package stats

import "testing"

func TestPercentileSingleton(t *testing.T) {
	one := []int{42}
	for _, p := range []float64{0, 25, 50, 99, 100} {
		if got := Percentile(one, p); got != 42 {
			t.Errorf("Percentile([42], %v) = %v", p, got)
		}
	}
}

func TestPercentileEmptyEveryP(t *testing.T) {
	for _, p := range []float64{0, 50, 100} {
		if got := Percentile(nil, p); got != 0 {
			t.Errorf("Percentile(nil, %v) = %v, want 0", p, got)
		}
	}
}
