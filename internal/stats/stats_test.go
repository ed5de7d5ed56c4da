package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleMoments(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Unbiased variance of this classic set is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Variance() != 0 || s.CI95() != 0 {
		t.Error("empty sample must be all zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Variance() != 0 || s.CI95() != 0 {
		t.Error("single observation has no variance or CI")
	}
}

func TestCI95KnownCase(t *testing.T) {
	// Two observations 0 and 2: mean 1, sd sqrt(2), CI = 12.706*sqrt(2)/sqrt(2).
	var s Sample
	s.Add(0)
	s.Add(2)
	want := 12.706
	if math.Abs(s.CI95()-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", s.CI95(), want)
	}
}

func TestCI95Coverage(t *testing.T) {
	// Frequentist sanity: the 95% CI of n=10 normal samples should cover
	// the true mean ~95% of the time.
	rng := rand.New(rand.NewSource(42))
	covered := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		var s Sample
		for j := 0; j < 10; j++ {
			s.Add(5 + 2*rng.NormFloat64())
		}
		if math.Abs(s.Mean()-5) <= s.CI95() {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.93 || frac > 0.97 {
		t.Errorf("coverage = %v, want ~0.95", frac)
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tCritical95(df)
		if v > prev+1e-9 {
			t.Fatalf("t-critical not monotone at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Error("df=0 must be NaN")
	}
	if tCritical95(1000) != 1.96 {
		t.Error("asymptote must be 1.96")
	}
}

// Property: Sample.Mean and Variance agree with direct computation.
func TestSampleMatchesDirect(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Sample
		var xs []float64
		for _, r := range raw {
			x := float64(r) / 128
			xs = append(xs, x)
			s.Add(x)
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		varSum := 0.0
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		variance := varSum / float64(len(xs)-1)
		return math.Abs(s.Mean()-mean) < 1e-9*(1+math.Abs(mean)) &&
			math.Abs(s.Variance()-variance) < 1e-6*(1+variance)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
