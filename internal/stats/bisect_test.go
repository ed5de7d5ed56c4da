package stats

import (
	"errors"
	"math"
	"testing"
)

func TestBisectNarrowsToTol(t *testing.T) {
	calls := 0
	lo, hi, err := Bisect(0, 8, 0.01, func(mid float64) (bool, error) {
		calls++
		return mid <= math.Pi, nil
	})
	if err != nil || lo > math.Pi || hi < math.Pi || hi-lo > 0.01 {
		t.Fatalf("bracket [%g, %g] err %v, want pi within 0.01", lo, hi, err)
	}
	if calls != 10 { // 8 / 2^10 < 0.01 <= 8 / 2^9
		t.Fatalf("%d probes, want 10", calls)
	}
}

func TestBisectStopsAtFloatResolution(t *testing.T) {
	for _, tol := range []float64{0, -1, 1e-300} {
		calls := 0
		lo, hi, _ := Bisect(0.5, 8, tol, func(mid float64) (bool, error) {
			calls++
			return mid <= 3, nil
		})
		if lo != 3 || hi != math.Nextafter(3, 4) || calls > 100 {
			t.Fatalf("tol %g: bracket [%v, %v] after %d probes, want adjacent floats at 3", tol, lo, hi, calls)
		}
	}
}

func TestBisectStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	lo, hi, err := Bisect(0, 8, 0.01, func(mid float64) (bool, error) {
		calls++
		if calls == 3 {
			return false, boom
		}
		return true, nil
	})
	if err != boom || calls != 3 || lo != 6 || hi != 8 {
		t.Fatalf("bracket [%g, %g] err %v after %d probes, want [6, 8] and the error after 3", lo, hi, err, calls)
	}
}
