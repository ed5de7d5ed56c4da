package stats

// Bisect narrows the bracket [lo, hi] around the boundary of a predicate
// that holds at the low end and fails at the high end: while hi-lo > tol it
// asks below(mid) about the midpoint and moves lo up to mid when it holds,
// hi down to mid otherwise. It returns the final bracket, and stops early on
// below's first error (the bracket as it stood) or once the midpoint no
// longer splits the bracket — adjacent floats, which any tol below their
// resolution would otherwise chase forever. below is called only at
// midpoints; probing the bracket ends is the caller's business.
func Bisect(lo, hi, tol float64, below func(mid float64) (bool, error)) (float64, float64, error) {
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if mid <= lo || mid >= hi {
			break
		}
		ok, err := below(mid)
		if err != nil {
			return lo, hi, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi, nil
}
