package live_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"batchsched/internal/engine/live"
	"batchsched/internal/history"
	"batchsched/internal/lock"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

func liveConfig(numFiles, dd int) live.Config {
	cfg := live.DefaultConfig()
	cfg.NumNodes = 4
	cfg.NumFiles = numFiles
	cfg.DD = dd
	cfg.RowsPerObject = 32
	cfg.Deadline = 20 * time.Second
	cfg.RestartDelay = 2 * time.Millisecond // break 2PL restart livelock
	cfg.RestartJitter = true
	return cfg
}

// exp1Batch pre-generates n Experiment-1 transactions.
func exp1Batch(seed int64, numFiles, n int) [][]model.Step {
	gen := workload.NewExp1(numFiles)
	rng := sim.NewRNG(seed).Stream("workload")
	out := make([][]model.Step, n)
	for i := range out {
		out[i] = gen.Steps(rng)
	}
	return out
}

// TestLiveCommitsBatch drives a contended Exp-1 batch through every
// scheduler on the live backend: everything must commit, the history must
// be conflict-serializable (except NODC, which violates it by design), and
// the DPN-side lock guards must observe zero incompatible co-residencies
// (except NODC).
func TestLiveCommitsBatch(t *testing.T) {
	const n = 24
	batch := exp1Batch(7, 6, n)
	for _, name := range sched.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := sched.DefaultParams()
			b, err := live.New(liveConfig(6, 1), sched.MustNew(name, p))
			if err != nil {
				t.Fatal(err)
			}
			rec := history.New()
			if name == "OPT" {
				rec = history.NewDeferredWrites()
			}
			rec.SetMonotone(true)
			b.SetObserver(rec)
			for _, steps := range batch {
				b.Submit(steps)
			}
			sum := b.Run()
			if err := b.Err(); err != nil {
				t.Fatal(err)
			}
			if sum.Completions != n {
				t.Fatalf("completions = %d, want %d", sum.Completions, n)
			}
			if rec.Commits() != n {
				t.Fatalf("recorded commits = %d, want %d", rec.Commits(), n)
			}
			if b.Checksum() == 0 {
				t.Error("zero checksum: store scans did not run")
			}
			if name == "NODC" {
				return // grants everything; violations and cycles expected
			}
			// OPT runs lock-free by design (conflicts surface at
			// validation), so co-residency violations are expected there;
			// serializability must still hold via certification.
			if name != "OPT" {
				if v := b.Violations(); v != 0 {
					t.Errorf("lock-guard violations = %d, want 0", v)
				}
			}
			if err := rec.CheckSerializable(); err != nil {
				t.Errorf("history not serializable: %v", err)
			}
		})
	}
}

// TestLiveDeclustering checks that DD > 1 splits steps over DD nodes and
// still commits with serializable histories.
func TestLiveDeclustering(t *testing.T) {
	const n = 12
	batch := exp1Batch(11, 8, n)
	b, err := live.New(liveConfig(8, 3), sched.MustNew("GOW", sched.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	rec := history.New()
	rec.SetMonotone(true)
	b.SetObserver(rec)
	for _, steps := range batch {
		b.Submit(steps)
	}
	sum := b.Run()
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if sum.Completions != n {
		t.Fatalf("completions = %d, want %d", sum.Completions, n)
	}
	// Every step is DD cohorts, so steps * DD completions flowed back.
	if sum.StepsExecuted != 4*n {
		t.Fatalf("steps executed = %d, want %d", sum.StepsExecuted, 4*n)
	}
	if err := rec.CheckSerializable(); err != nil {
		t.Fatal(err)
	}
	if b.Violations() != 0 {
		t.Fatalf("violations = %d, want 0", b.Violations())
	}
}

// TestLiveMPL verifies the machine-level admission cap: with MPL=1 the
// batch serializes completely but still commits.
func TestLiveMPL(t *testing.T) {
	cfg := liveConfig(4, 1)
	cfg.MPL = 1
	b, err := live.New(cfg, sched.MustNew("LOW", sched.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for _, steps := range exp1Batch(3, 4, n) {
		b.Submit(steps)
	}
	sum := b.Run()
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if sum.Completions != n {
		t.Fatalf("completions = %d, want %d", sum.Completions, n)
	}
}

// TestLiveObservability runs with the obs layer attached: spans must cover
// every transaction, every span must have End >= Start despite wall-clock
// stamps from racing goroutines, and the audit log must be monotone.
func TestLiveObservability(t *testing.T) {
	cfg := liveConfig(6, 2)
	b, err := live.New(cfg, sched.MustNew("GOW", sched.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	o.SetSampleInterval(sim.Millisecond)
	b.SetObs(o)
	const n = 16
	for _, steps := range exp1Batch(5, 6, n) {
		b.Submit(steps)
	}
	sum := b.Run()
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if sum.Completions != n {
		t.Fatalf("completions = %d, want %d", sum.Completions, n)
	}
	txnSpans, cohortSpans := 0, 0
	for _, sp := range o.Spans() {
		if sp.End < sp.Start {
			t.Fatalf("span %q: End %v < Start %v", sp.Name, sp.End, sp.Start)
		}
		switch sp.Name {
		case "txn":
			txnSpans++
		case "cohort":
			cohortSpans++
		}
	}
	if txnSpans != n {
		t.Errorf("txn spans = %d, want %d", txnSpans, n)
	}
	if want := 4 * n * cfg.DD; cohortSpans != want {
		t.Errorf("cohort spans = %d, want %d", cohortSpans, want)
	}
	entries := o.Audit().Entries()
	if len(entries) == 0 {
		t.Fatal("no audit entries from GOW on live backend")
	}
	last := -1.0
	for i, e := range entries {
		if e.AtMS < last {
			t.Fatalf("audit entry %d: AtMS %v < previous %v", i, e.AtMS, last)
		}
		last = e.AtMS
	}
}

// TestLivePacing checks PacePerObject imposes a wall-time floor: a batch of
// known total objects cannot finish faster than the per-node share implies.
func TestLivePacing(t *testing.T) {
	cfg := liveConfig(4, 1)
	cfg.PacePerObject = 2 * time.Millisecond
	b, err := live.New(cfg, sched.MustNew("NODC", sched.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	// One transaction, one 5-object step: >= 10ms of paced service.
	steps := []model.Step{{File: 0, LockMode: model.X, Write: true, Cost: 5, DeclaredCost: 5}}
	b.Submit(steps)
	start := time.Now()
	sum := b.Run()
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if sum.Completions != 1 {
		t.Fatal("did not complete")
	}
	if el := time.Since(start); el < 9*time.Millisecond {
		t.Errorf("paced run finished in %v, want >= ~10ms", el)
	}
}

// delayAll admits everything and policy-delays every lock request, so no
// step ever runs and no commit ever comes to wake anyone.
type delayAll struct{}

func (delayAll) Name() string                         { return "delay-all" }
func (delayAll) Admit(*model.Txn) (bool, sim.Time)    { return true, 0 }
func (delayAll) Validate(*model.Txn) (bool, sim.Time) { return true, 0 }
func (delayAll) Committed(*model.Txn)                 {}
func (delayAll) Aborted(*model.Txn)                   {}
func (delayAll) Request(*model.Txn) sched.Outcome {
	return sched.Outcome{Decision: sched.Delay}
}

// TestLiveQuiescentBatchFailsFast: a batch that can no longer progress —
// every transaction policy-delayed, nothing in flight — must return its
// error at once instead of waiting out the deadline, and the error must name
// every waiter.
func TestLiveQuiescentBatchFailsFast(t *testing.T) {
	cfg := liveConfig(4, 1)
	cfg.Deadline = 20 * time.Second
	b, err := live.New(cfg, delayAll{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for _, steps := range exp1Batch(3, 4, n) {
		b.Submit(steps)
	}
	start := time.Now()
	sum := b.Run()
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("quiescent batch took %v to fail", el)
	}
	if sum.Completions != 0 {
		t.Fatalf("completions = %d, want 0", sum.Completions)
	}
	if b.Err() == nil {
		t.Fatal("no error for a batch that cannot finish")
	}
	msg := b.Err().Error()
	for i := 1; i <= n; i++ {
		if want := fmt.Sprintf("T%d delayed at step 0", i); !strings.Contains(msg, want) {
			t.Errorf("error %q lacks %q", msg, want)
		}
	}
}

// grantAll keeps a lock table, as the lock-based schedulers do, yet grants
// every request like NODC: a lock-keeping scheduler gone wrong.
type grantAll struct {
	sched.Scheduler
	locks *lock.Table
}

func (grantAll) Name() string         { return "grant-all" }
func (s grantAll) Locks() *lock.Table { return s.locks }

// TestGuardViolationPolicy: a DPN lock-guard violation fails the run (Err)
// exactly when the scheduler keeps a lock table. The same
// conflicting batch under NODC, which keeps none and co-runs conflicting
// cohorts by design, only counts its violations.
func TestGuardViolationPolicy(t *testing.T) {
	batch := exp1Batch(5, 2, 16)
	cfg := liveConfig(2, 1)
	cfg.PacePerObject = 200 * time.Microsecond // keep conflicting cohorts co-resident
	for _, tc := range []struct {
		s     sched.Scheduler
		fails bool
	}{
		{sched.NewNODC(), false},
		{grantAll{sched.NewNODC(), lock.NewTable()}, true},
	} {
		b, err := live.New(cfg, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := b.RunBatch(batch)
		if sum.Completions != len(batch) {
			t.Fatalf("%s: %d of %d committed", tc.s.Name(), sum.Completions, len(batch))
		}
		if b.Violations() == 0 {
			t.Fatalf("%s: no guard violations, so the batch does not exercise the policy", tc.s.Name())
		}
		if (err != nil) != tc.fails {
			t.Errorf("%s with %d violations: Err = %v, want failure %v", tc.s.Name(), b.Violations(), err, tc.fails)
		}
	}
}
