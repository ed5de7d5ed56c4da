package experiments

import (
	"strings"
	"testing"

	"batchsched/internal/sim"
)

// quick returns options small enough for unit tests: 100-second windows.
func quick() Options {
	return Options{Duration: 100_000 * sim.Millisecond, SolverTol: 0.1, Seed: 3}
}

// TestRunDeterministic compares Run with a fresh run that bypasses the
// replication memo: a nondeterministic simulation must fail here.
func TestRunDeterministic(t *testing.T) {
	p := Point{Scheduler: "LOW", Lambda: 0.5, NumFiles: 16, DD: 1, Load: Exp1,
		Seed: 1, Duration: 100_000 * sim.Millisecond}
	a, b := Run(p), runUncached(p)
	if a.MeanRT != b.MeanRT || a.Completions != b.Completions {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestRunReplicationsDiffer(t *testing.T) {
	p := Point{Scheduler: "ASL", Lambda: 0.5, NumFiles: 16, DD: 1, Load: Exp1,
		Seed: 1, Duration: 100_000 * sim.Millisecond}
	one := Run(p)
	p.Reps = 3
	three := Run(p)
	if three.Completions == 0 {
		t.Fatal("no completions")
	}
	// Replications share nothing, so the averaged result almost surely
	// differs from the single run.
	if one.MeanRT == three.MeanRT && one.Completions == three.Completions {
		t.Error("replication averaging appears to be a no-op")
	}
}

func TestRunAllOrder(t *testing.T) {
	pts := []Point{
		{Scheduler: "NODC", Lambda: 0.2, NumFiles: 16, DD: 1, Load: Exp1, Seed: 1, Duration: 50_000 * sim.Millisecond},
		{Scheduler: "NODC", Lambda: 0.8, NumFiles: 16, DD: 1, Load: Exp1, Seed: 1, Duration: 50_000 * sim.Millisecond},
	}
	sums := RunAll(pts)
	if len(sums) != 2 {
		t.Fatal("wrong length")
	}
	if sums[0].Completions >= sums[1].Completions {
		t.Errorf("completions %d vs %d: order scrambled?", sums[0].Completions, sums[1].Completions)
	}
}

func TestSolverMonotone(t *testing.T) {
	p := Point{Scheduler: "NODC", NumFiles: 16, DD: 1, Load: Exp1, Seed: 1,
		Duration: 200_000 * sim.Millisecond}
	// Solve for two different RT targets: the lambda at the lower target
	// must not exceed the one at the higher target.
	l1 := SolveLambdaAtRT(p, 0, 5*sim.Second, 0.05, 1.4, 0.02)
	l2 := SolveLambdaAtRT(p, 0, 30*sim.Second, 0.05, 1.4, 0.02)
	if l1 > l2 {
		t.Errorf("solver not monotone: λ(5s)=%v > λ(30s)=%v", l1, l2)
	}
	if l1 < 0.05 || l2 > 1.4 {
		t.Errorf("solver out of bracket: %v %v", l1, l2)
	}
}

func TestSolverSaturatesAtBounds(t *testing.T) {
	p := Point{Scheduler: "NODC", NumFiles: 16, DD: 1, Load: Exp1, Seed: 1,
		Duration: 50_000 * sim.Millisecond}
	// A 50s window cannot produce 70s response times: hi is returned.
	if l := SolveLambdaAtRT(p, 0, TargetRT, 0.05, 1.0, 0.02); l != 1.0 {
		t.Errorf("unreachable target: λ = %v, want hi bound 1.0", l)
	}
	// A 0-second target is below even the lightest load: lo is returned.
	if l := SolveLambdaAtRT(p, 0, 0, 0.05, 1.0, 0.02); l != 0.05 {
		t.Errorf("impossible target: λ = %v, want lo bound 0.05", l)
	}
}

func TestBestC2PLMPicksAnMPL(t *testing.T) {
	p := Point{Lambda: 1.2, NumFiles: 16, DD: 1, Load: Exp1, Seed: 1,
		Duration: 150_000 * sim.Millisecond}
	sum, mpl := BestC2PLM(p)
	found := false
	for _, m := range MPLSweep {
		if m == mpl {
			found = true
		}
	}
	if !found {
		t.Errorf("mpl %d not from the sweep %v", mpl, MPLSweep)
	}
	if sum.Completions == 0 {
		t.Error("best C2PL+M completed nothing")
	}
}

func TestFindArtifact(t *testing.T) {
	ids := []string{"fig8", "table2", "fig9", "table3", "fig10", "fig11", "table4", "fig12", "fig13", "table5", "exp4", "phases"}
	if len(Artifacts) != len(ids) {
		t.Fatalf("artifact count = %d, want %d (one per table and figure, plus extensions)", len(Artifacts), len(ids))
	}
	for _, id := range ids {
		a, ok := FindArtifact(id)
		if !ok {
			t.Errorf("artifact %q missing", id)
		}
		if a.ID != id || a.Run == nil {
			t.Errorf("artifact %q malformed", id)
		}
	}
	if _, ok := FindArtifact("fig99"); ok {
		t.Error("unknown artifact found")
	}
}

// TestFig8Smoke regenerates Fig. 8 at a tiny scale and checks structure plus
// the coarsest shape property: at a heavy load, C2PL's response time exceeds
// NODC's.
func TestFig8Smoke(t *testing.T) {
	tbl := Fig8(quick())
	if len(tbl.Rows) != 14 {
		t.Fatalf("rows = %d, want 14 lambda points", len(tbl.Rows))
	}
	if len(tbl.Header) != 7 {
		t.Fatalf("header = %v", tbl.Header)
	}
	if !strings.Contains(tbl.String(), "NODC") {
		t.Error("render lost the header")
	}
}

// TestTable5Smoke checks the degradation table's structure at tiny scale.
func TestTable5Smoke(t *testing.T) {
	tbl := Table5(quick())
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (GOW, LOW)", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != 4 {
			t.Fatalf("row = %v, want scheduler + 3 DDs", row)
		}
		if !strings.Contains(row[1], "%") {
			t.Errorf("cell %q should be a percentage", row[1])
		}
	}
}

func TestPointGeneratorSelection(t *testing.T) {
	p := Point{Load: Exp2, NumFiles: 99}
	if g := p.generator(); g == nil {
		t.Fatal("nil generator")
	}
	p = Point{Load: Exp1, NumFiles: 16, Sigma: 1.5}
	if g := p.generator(); g == nil {
		t.Fatal("nil generator with error model")
	}
}

// TestAllArtifactsSmoke regenerates every artifact at a tiny scale,
// asserting the structural contract of each table (row/column counts and
// paper-comparison cell format where applicable).
func TestAllArtifactsSmoke(t *testing.T) {
	o := Options{Duration: 40_000 * sim.Millisecond, SolverTol: 0.3, Seed: 2}
	wantRows := map[string]int{
		"fig8":   14, // one per lambda
		"table2": 4,  // one per NumFiles
		"fig9":   4,  // one per DD
		"table3": 4,
		"fig10":  4,
		"fig11":  10, // one per lambda
		"table4": 6,  // 3 DD x {thruput, RT}
		"fig12":  4,
		"fig13":  18, // 3 DD x 6 sigma
		"table5": 2,  // GOW, LOW
		"exp4":   5,  // one per MTBF (incl. failure-free)
		"phases": 6,  // one per scheduler
	}
	for _, a := range Artifacts {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			tbl := a.Run(o)
			if tbl.Title == "" || len(tbl.Header) < 2 {
				t.Fatalf("malformed table: %+v", tbl)
			}
			if got := len(tbl.Rows); got != wantRows[a.ID] {
				t.Fatalf("rows = %d, want %d", got, wantRows[a.ID])
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("ragged row %v vs header %v", row, tbl.Header)
				}
			}
			// Paper-comparison tables carry "(paper)" cells.
			switch a.ID {
			case "table2", "table3", "table4", "table5":
				if !strings.Contains(tbl.Rows[0][len(tbl.Rows[0])-1], "(") {
					t.Errorf("%s should embed paper reference values: %v", a.ID, tbl.Rows[0])
				}
			}
		})
	}
}
