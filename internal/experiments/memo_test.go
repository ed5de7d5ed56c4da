package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"batchsched/internal/admit"
	"batchsched/internal/metrics"
	"batchsched/internal/obs"
	"batchsched/internal/sim"
)

// resetMemo empties the replication memo.
func resetMemo() {
	memo.Lock()
	memo.table = nil
	memo.Unlock()
}

// simsSince returns the replication counts accumulated since before.
func simsSince(before Sims) Sims {
	now := SimCounts()
	return Sims{now.Simulated - before.Simulated, now.Reused - before.Reused}
}

// TestMemoConcurrent: many goroutines run the same points and different
// points at once. Every result must equal an uncached run, and a caller that
// writes into its summary must reach neither the table nor another caller
// (run with -race -count=10).
func TestMemoConcurrent(t *testing.T) {
	resetMemo()
	keys := make([]Point, 4)
	want := make([]metrics.Summary, len(keys))
	for i := range keys {
		keys[i] = Point{Scheduler: "LOW", Lambda: 0.6, NumFiles: 16, DD: 2, Load: Exp1,
			Seed: int64(i + 1), Duration: 30 * sim.Second}
		want[i] = runUncached(keys[i])
		if len(want[i].PerDPNUtilization) == 0 {
			t.Fatal("summary has no per-node utilization to alias")
		}
	}
	const workers, calls = 16, 8
	before := SimCounts()
	var wg sync.WaitGroup
	bad := make(chan string, workers*calls)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				i := (w + c) % len(keys)
				got := Run(keys[i])
				if !reflect.DeepEqual(got, want[i]) {
					bad <- fmt.Sprintf("worker %d, seed %d: memoized summary differs from an uncached run", w, keys[i].Seed)
				}
				got.PerDPNUtilization[0] = -1
			}
		}(w)
	}
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}
	d := simsSince(before)
	if d.Simulated+d.Reused != workers*calls {
		t.Errorf("simulated %d + reused %d, want %d replications", d.Simulated, d.Reused, workers*calls)
	}
	// From its fifth call on, each worker revisits a point it ran itself.
	if d.Simulated < uint64(len(keys)) || d.Reused < workers*(calls-uint64(len(keys))) {
		t.Errorf("simulated %d, reused %d: the memo missed repeats", d.Simulated, d.Reused)
	}
}

// TestMemoKey: replications of one point are distinct keys (Seed+r), Reps is
// not part of the key, and every other Point field is — with K keyed as the
// bound LOW runs with, so the paper's K spelled out or exact shares the
// default's key and an exact zero does not.
func TestMemoKey(t *testing.T) {
	resetMemo()
	p := Point{Scheduler: "ASL", Lambda: 0.5, NumFiles: 16, DD: 1, Load: Exp1,
		Seed: 7, Reps: 2, Duration: 30 * sim.Second}
	before := SimCounts()
	Run(p) // seeds 7 and 8
	q := p
	q.Seed, q.Reps = 8, 1
	Run(q) // seed 8 again
	r := p
	r.K = 3
	Run(r) // another point: seeds 7 and 8 again
	s := p
	s.K, s.ExactK = 2, true
	Run(s) // the paper's K spelled out: p's key
	z := p
	z.ExactK = true
	Run(z) // K exactly 0: another point
	if d := simsSince(before); d != (Sims{Simulated: 6, Reused: 3}) {
		t.Errorf("counts = %+v, want 6 simulated and 3 reused", d)
	}
}

// TestMemoBypasses: observed runs and service points always simulate.
func TestMemoBypasses(t *testing.T) {
	resetMemo()
	p := Point{Scheduler: "GOW", Lambda: 0.5, NumFiles: 16, DD: 1, Load: Exp1,
		Seed: 3, Duration: 30 * sim.Second}
	svc := p
	pol := admit.DefaultPolicy()
	svc.Service = &pol
	before := SimCounts()
	for i := 0; i < 2; i++ {
		RunObserved(p, obs.New())
		Run(svc)
	}
	if d := simsSince(before); d != (Sims{Simulated: 4}) {
		t.Errorf("counts = %+v, want 4 simulated and none reused", d)
	}
}

// TestRunGridUsesMemo: a replicated grid runs through the replication memo,
// so a rerun of the same grid simulates nothing and prints the same rows.
func TestRunGridUsesMemo(t *testing.T) {
	resetMemo()
	g := Exp1Spec(Options{Reps: 2, Seed: 3, Duration: 30 * sim.Second})
	g.Schedulers, g.Lambdas = []string{"LOW", "NODC"}, []float64{0.4}
	before := SimCounts()
	first := RunGrid(g)
	if d := simsSince(before); d != (Sims{Simulated: 4}) {
		t.Errorf("first run counts = %+v, want 4 simulated", d)
	}
	before = SimCounts()
	again := RunGrid(g)
	if d := simsSince(before); d != (Sims{Reused: 4}) {
		t.Errorf("rerun counts = %+v, want 4 reused", d)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("rerun differs:\n%+v\n%+v", first, again)
	}
}

// TestMemoBounded: the table is dropped whole when it reaches memoLimit.
func TestMemoBounded(t *testing.T) {
	resetMemo()
	p := Point{Scheduler: "NODC", Lambda: 0.1, NumFiles: 16, DD: 1, Load: Exp1, Duration: sim.Second}
	for i := 0; i <= memoLimit; i++ {
		p.Seed = int64(i + 1)
		runOnce(p, p.Seed)
	}
	memo.Lock()
	n := len(memo.table)
	memo.Unlock()
	if n != 1 {
		t.Errorf("table holds %d entries after %d inserts, want 1 (dropped at %d)", n, memoLimit+1, memoLimit)
	}
}

// TestArtifactsIndependentOfMemoOrder regenerates every artifact in paper
// order and in reverse order, each from an empty memo: the tables must be
// identical, and in paper order Fig. 10 and Table 5 must simulate nothing
// after Table 3 and Fig. 13.
func TestArtifactsIndependentOfMemoOrder(t *testing.T) {
	o := Options{Duration: 60 * sim.Second, SolverTol: 0.01, Seed: 5}
	regen := func(order []Artifact) (map[string]string, map[string]Sims) {
		resetMemo()
		tables, sims := make(map[string]string), make(map[string]Sims)
		for _, a := range order {
			before := SimCounts()
			tables[a.ID] = a.Run(o).String()
			sims[a.ID] = simsSince(before)
		}
		return tables, sims
	}
	paper, sims := regen(Artifacts)
	backward := slices.Clone(Artifacts)
	slices.Reverse(backward)
	reverse, _ := regen(backward)
	for _, a := range Artifacts {
		if paper[a.ID] != reverse[a.ID] {
			t.Errorf("%s differs between paper-order and reverse-order regeneration:\n%s\n%s",
				a.ID, paper[a.ID], reverse[a.ID])
		}
	}
	for _, id := range []string{"fig10", "table5"} {
		if s := sims[id]; s.Simulated != 0 || s.Reused == 0 {
			t.Errorf("%s: %+v, want every replication reused", id, s)
		}
	}
}

// TestSolveLambdaNegativeTolReturns: a tolerance the bracket can never get
// under (negative, or below float resolution) must still end the bisection,
// at the same rate a zero tolerance reaches.
func TestSolveLambdaNegativeTolReturns(t *testing.T) {
	p := Point{Scheduler: "NODC", NumFiles: 16, DD: 1, Load: Exp1, Seed: 1,
		Duration: 100 * sim.Second}
	target := 15 * sim.Second
	done := make(chan float64, 1)
	go func() { done <- SolveLambdaAtRT(p, 0, target, 0.05, 1.4, -1) }()
	select {
	case got := <-done:
		if want := SolveLambdaAtRT(p, 0, target, 0.05, 1.4, 0); got != want {
			t.Errorf("tol -1 solve = %v, tol 0 solve = %v", got, want)
		}
		if got <= 0.05 || got >= 1.4 {
			t.Errorf("solve = %v, want strictly inside the bracket (the target must be crossed)", got)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("SolveLambdaAtRT at tol -1 did not return")
	}
}
