package experiments

import (
	"slices"
	"strings"
	"testing"

	"batchsched/internal/report"
)

func TestAblationsListed(t *testing.T) {
	if len(Ablations) != 5 {
		t.Fatalf("ablations = %d, want 5", len(Ablations))
	}
	seen := map[string]bool{}
	for _, a := range Ablations {
		if a.Run == nil || a.ID == "" {
			t.Errorf("malformed ablation %+v", a)
		}
		if seen[a.ID] {
			t.Errorf("duplicate ablation id %q", a.ID)
		}
		seen[a.ID] = true
		if !strings.HasPrefix(a.ID, "ablation-") && !strings.HasPrefix(a.ID, "ext-") {
			t.Errorf("ablation id %q should be namespaced", a.ID)
		}
	}
}

func TestAblationLOWKSmoke(t *testing.T) {
	tbl := AblationLOWK(quick())
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 K values", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != 5 {
			t.Fatalf("row = %v", row)
		}
	}
}

func TestAblationGOWOptimizationSmoke(t *testing.T) {
	tbl := AblationGOWOptimization(quick())
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 DDs", len(tbl.Rows))
	}
}

func TestAblationQuantumSmoke(t *testing.T) {
	tbl := AblationQuantum(quick())
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblationRetryPolicySmoke(t *testing.T) {
	tbl := AblationRetryPolicy(quick())
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

// TestAblationsCountSimulations: the ablation studies run their points
// through Run, so every run counts in SimCounts and a configuration two
// studies share is simulated once: ablation-retry's GOW base is
// ablation-gow's DD 1 base, and its LOW base is ablation-lowk's K=2 exp1
// run.
func TestAblationsCountSimulations(t *testing.T) {
	resetMemo()
	want := map[string]Sims{
		"ablation-lowk":    {Simulated: 10},           // 5 K values x 2 workloads
		"ablation-gow":     {Simulated: 6},            // 3 DDs x {optimized, greedy}
		"ablation-quantum": {Simulated: 6},            // 3 schedulers x {RR, RTC}
		"ablation-retry":   {Simulated: 7, Reused: 2}, // 3 schedulers x 3 policies
		"ext-lb":           {Simulated: 6},            // 3 skews x {LOW, LOW-LB}
	}
	for _, a := range Ablations {
		before := SimCounts()
		a.Run(quick())
		if d := simsSince(before); d != want[a.ID] {
			t.Errorf("%s: %d simulated, %d reused; want %d simulated, %d reused",
				a.ID, d.Simulated, d.Reused, want[a.ID].Simulated, want[a.ID].Reused)
		}
	}
}

// TestAblationReplicates: with Reps 2 an ablation simulates two
// replications of each configuration and reports their average.
func TestAblationReplicates(t *testing.T) {
	resetMemo()
	o := quick()
	o.Reps = 2
	before := SimCounts()
	tbl := AblationGOWOptimization(o)
	if d := simsSince(before); d != (Sims{Simulated: 12}) {
		t.Fatalf("counts = %+v, want 12 simulated (3 DDs x 2 variants x 2 reps)", d)
	}
	p := o.norm().point()
	p.Scheduler, p.Lambda = "GOW", 1.2
	avg := runUncached(p)
	if got, want := tbl.Rows[0][1:3], []string{report.F(avg.MeanRT.Seconds(), 0), report.F(avg.TPS, 2)}; !slices.Equal(got, want) {
		t.Errorf("DD 1 GOW cells = %v, want the two-replication mean %v", got, want)
	}
	p.Reps = 1
	one := runUncached(p)
	if avg.Completions == one.Completions && avg.MeanRT == one.MeanRT {
		t.Error("the two-replication mean equals the first replication: the second was not averaged in")
	}
}
