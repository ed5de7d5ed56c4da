package experiments

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int32
	if err := forEach(n, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("index %d ran %d times", i, got)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	for _, n := range []int{0, -1} {
		if err := forEach(n, func(int) error { t.Error("ran"); return nil }); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestForEachIsolatesPanics(t *testing.T) {
	var count atomic.Int32
	err := forEach(10, func(i int) error {
		if i == 3 {
			panic("boom")
		}
		count.Add(1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task 3 panicked: boom") {
		t.Fatalf("panic not surfaced: %v", err)
	}
	if count.Load() != 9 {
		t.Errorf("other tasks did not finish: %d of 9", count.Load())
	}
}

func TestForEachCollectsErrors(t *testing.T) {
	sentinel := errors.New("bad cell")
	err := forEach(6, func(i int) error {
		if i%2 == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is lost the task error: %v", err)
	}
}
