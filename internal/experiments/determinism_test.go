package experiments

import (
	"reflect"
	"testing"

	"batchsched/internal/fault"
	"batchsched/internal/metrics"
	"batchsched/internal/sim"
)

// runUncached is Run without the replication memo: every replication is
// simulated afresh, so comparing it with Run re-executes the point.
func runUncached(p Point) metrics.Summary {
	sums := make([]metrics.Summary, max(p.Reps, 1))
	for r := range sums {
		sums[r] = runObserved(p, p.Seed+int64(r), nil)
	}
	return metrics.Average(sums)
}

func determinismPoints() []Point {
	clean := Point{
		Scheduler: "LOW",
		Lambda:    0.6,
		NumFiles:  16,
		DD:        2,
		Load:      Exp1,
		Seed:      11,
		Reps:      2,
		Duration:  150_000 * sim.Millisecond,
	}
	faulty := clean
	faulty.Scheduler = "C2PL"
	faulty.RestartDelay = 2 * sim.Second
	faulty.Faults = fault.Config{
		MTBF: 80 * sim.Second, MTTR: 5 * sim.Second,
		StragglerMTBF: 150 * sim.Second, StragglerDuration: 10 * sim.Second, StragglerFactor: 3,
		MsgLoss: 0.03, MsgTimeout: 5 * sim.Second, MsgRetries: 2,
	}
	return []Point{clean, faulty}
}

// TestRunIsDeterministic: the same point and seed must reproduce a deeply
// equal summary on every sequential call, with and without faults. The
// second call bypasses the replication memo, so the point really runs twice.
func TestRunIsDeterministic(t *testing.T) {
	for _, p := range determinismPoints() {
		a, b := Run(p), runUncached(p)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s (faults=%v): summaries differ across identical runs:\n%+v\n%+v",
				p.Scheduler, p.Faults.Enabled(), a, b)
		}
	}
}

// TestRunAllMatchesSequential: the concurrent runner must return exactly what
// a sequential, uncached run produces for each point — worker scheduling,
// the replication memo or RNG misuse must never leak between points.
func TestRunAllMatchesSequential(t *testing.T) {
	pts := determinismPoints()
	// Duplicate the points so the pool provably yields identical results for
	// identical inputs run on different workers.
	pts = append(pts, pts...)
	got := RunAll(pts)
	for i, p := range pts {
		if want := runUncached(p); !reflect.DeepEqual(got[i], want) {
			t.Errorf("point %d (%s): RunAll result differs from a sequential uncached run", i, p.Scheduler)
		}
	}
}
