package experiments

import (
	"slices"
	"sync"
	"sync/atomic"

	"batchsched/internal/metrics"
	"batchsched/internal/sched"
)

// The replication memo. The paper's artifacts share operating points —
// Fig. 10 is Table 3's response times, Table 5 is two σ columns of Fig. 13,
// Fig. 9's DD=1 row is Table 2's NumFiles=16 row — and every RT=70s solve
// re-runs the arrival rate it last verified. runOnce therefore keeps each
// replication's summary, keyed by the full Point with Seed set to the
// replication seed and Reps to 0, and serves a repeat from the table.
//
// Like a sync.Pool, the table can skip work but never change a result:
// runObserved is a pure function of (Point, seed). The table is
// package-level because cmd/paperbench and the benchmark regenerate
// artifacts through separate Artifact.Run calls and nothing else spans
// them. It is dropped whole once it holds memoLimit entries.

// memoLimit bounds the table at a few MB: an entry takes well under 1 KB,
// and a full-scale regeneration of every artifact stores about 1 100 per
// replication (-reps).
const memoLimit = 8192

var memo struct {
	sync.Mutex
	table map[Point]metrics.Summary
}

// simulated counts runObserved calls; reused counts memo hits.
var simulated, reused atomic.Uint64

// Sims counts replications since the process started: Simulated counts
// every simulation run, memo bypasses included; Reused counts the ones the
// replication memo served instead.
type Sims struct {
	Simulated, Reused uint64
}

// SimCounts returns the process-wide replication counts.
func SimCounts() Sims {
	return Sims{simulated.Load(), reused.Load()}
}

// runOnce simulates one replication of p at seed, or returns the memoized
// summary of an identical earlier one. Service points (whose policy is a
// pointer) always simulate.
func runOnce(p Point, seed int64) metrics.Summary {
	if p.Service != nil {
		return runObserved(p, seed, nil)
	}
	key := p
	key.Seed, key.Reps = seed, 0
	// Key by the conflict bound LOW runs with: a zero K is the paper's K
	// unless it is exact.
	if key.K == 0 && !key.ExactK {
		key.K = sched.DefaultParams().K
	}
	key.ExactK = key.K == 0
	memo.Lock()
	sum, ok := memo.table[key]
	memo.Unlock()
	if ok {
		reused.Add(1)
		sum.PerDPNUtilization = slices.Clone(sum.PerDPNUtilization)
		return sum
	}
	sum = runObserved(p, seed, nil)
	kept := sum
	kept.PerDPNUtilization = slices.Clone(sum.PerDPNUtilization)
	memo.Lock()
	if memo.table == nil || len(memo.table) >= memoLimit {
		memo.table = make(map[Point]metrics.Summary)
	}
	memo.table[key] = kept
	memo.Unlock()
	return sum
}
