// Package stats provides the small statistical toolkit the measurement
// harness uses: sample moments, Student-t confidence intervals for
// replicated simulations, quantiles, and the bisection loop of the
// capacity solvers.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations for moment estimates. The zero value is
// ready to use.
type Sample struct {
	n    int
	sum  float64
	sumS float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.sum += x
	s.sumS += x * x
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := (s.sumS - float64(s.n)*m*m) / float64(s.n-1)
	if v < 0 { // numerical guard
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min and Max return the extremes (0 when empty).
func (s *Sample) Min() float64 { return s.min }
func (s *Sample) Max() float64 { return s.max }

// CI95 returns the half-width of the 95% Student-t confidence interval for
// the mean (0 for n < 2).
func (s *Sample) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return tCritical95(s.n-1) * s.StdDev() / math.Sqrt(float64(s.n))
}

// String formats mean ± half-width.
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.n)
}

// tCritical95 returns the two-sided 95% critical value of Student's t with
// df degrees of freedom (tabulated for small df, asymptotic beyond).
func tCritical95(df int) float64 {
	table := []float64{
		0, // df=0 unused
		12.706, 4.303, 3.182, 2.776, 2.571,
		2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131,
		2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060,
		2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	switch {
	case df < 40:
		return 2.03
	case df < 60:
		return 2.01
	case df < 120:
		return 1.99
	default:
		return 1.96
	}
}
