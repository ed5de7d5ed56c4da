package stats

import "sort"

// QuantileSorted returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// slice, using linear interpolation between order statistics (the R type-7 /
// numpy default estimator). It returns 0 on an empty slice; q outside [0, 1]
// is clamped.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Quantile sorts a copy of xs and returns its q-quantile.
func Quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}
