package experiments

import (
	"strings"
	"testing"
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

// TestAblationsCountSimulations: the ablation studies build their machines
// through the package's one construction path (newMachine), so every run
// counts in SimCounts and none is served by the replication memo.
func TestAblationsCountSimulations(t *testing.T) {
	want := map[string]uint64{
		"ablation-lowk":    10, // 5 K values x 2 workloads
		"ablation-gow":     6,  // 3 DDs x {optimized, greedy}
		"ablation-quantum": 6,  // 3 schedulers x {RR, RTC}
		"ablation-retry":   9,  // 3 schedulers x 3 policies
		"ext-lb":           6,  // 3 skews x {LOW, LOW-LB}
	}
	for _, a := range Ablations {
		before := SimCounts()
		a.Run(quick())
		if d := simsSince(before); d.Simulated != want[a.ID] || d.Reused != 0 {
			t.Errorf("%s: %d simulated, %d reused; want %d simulated, 0 reused",
				a.ID, d.Simulated, d.Reused, want[a.ID])
		}
	}
}
