package stats

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileSortedInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{1, 40},
		{0.5, 25},    // midpoint between the 2nd and 3rd order statistics
		{0.25, 17.5}, // pos = 0.75 -> 10 + 0.75*(20-10)
		{0.95, 38.5}, // pos = 2.85 -> 30 + 0.85*(40-30)
		{-1, 10},     // clamped
		{2, 40},      // clamped
	}
	for _, c := range cases {
		if got := QuantileSorted(xs, c.q); !almost(got, c.want) {
			t.Errorf("QuantileSorted(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := QuantileSorted(nil, 0.5); got != 0 {
		t.Errorf("empty slice: got %v, want 0", got)
	}
	if got := QuantileSorted([]float64{7}, 0.99); got != 7 {
		t.Errorf("single element: got %v, want 7", got)
	}
}

func TestQuantileSortsACopy(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Quantile(xs, 0.5); !almost(got, 2) {
		t.Errorf("Quantile(unsorted, 0.5) = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

// TestPercentileShorthands: the percentiles the reports quote are exact
// order statistics on 0..100 under type-7 (pN == N).
func TestPercentileShorthands(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, n := range []float64{50, 95, 99} {
		if got := Quantile(xs, n/100); !almost(got, n) {
			t.Errorf("p%g = %v, want %g", n, got, n)
		}
	}
}
