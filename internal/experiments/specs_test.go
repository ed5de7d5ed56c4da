package experiments

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"batchsched/internal/metrics"
	"batchsched/internal/report"
	"batchsched/internal/sim"
)

func TestExp1SpecShape(t *testing.T) {
	o := Options{Duration: 100_000 * sim.Millisecond}
	cells := Exp1Spec(o).Points()
	if want := len(fig8Lambdas) * len(sixSchedulers); len(cells) != want {
		t.Fatalf("exp1 cells = %d, want %d", len(cells), want)
	}
	// Scheduler is the fastest-varying dimension, so a positional consumer
	// (the Fig. 8 regenerator) reads cells[li*6+si].
	for li, lambda := range fig8Lambdas {
		for si, s := range sixSchedulers {
			i := li*len(sixSchedulers) + si
			c := cells[i]
			if c.Lambda != lambda || c.Scheduler != s {
				t.Fatalf("cell %d = (λ=%v, %s), want (λ=%v, %s)",
					i, c.Lambda, c.Scheduler, lambda, s)
			}
			if c.NumFiles != 16 || c.DD != 1 || c.Load != Exp1 {
				t.Fatalf("cell %d base params: %+v", i, c)
			}
		}
	}
}

func TestExp4SpecShape(t *testing.T) {
	cells := Exp4Spec(Options{Duration: 100_000 * sim.Millisecond}).Points()
	if want := len(Exp4MTBFs) * len(sixSchedulers); len(cells) != want {
		t.Fatalf("exp4 cells = %d, want %d", len(cells), want)
	}
	// MTBF-major, scheduler fastest — the Exp4 table reads rows positionally.
	for mi, mtbf := range Exp4MTBFs {
		c := cells[mi*len(sixSchedulers)]
		if c.Faults.MTBF != mtbf || c.Lambda != exp4Lambda || c.DD != exp4DD {
			t.Fatalf("mtbf row %d starts with %+v", mi, c)
		}
	}
}

func TestPaperSpecRegistry(t *testing.T) {
	o := Options{Duration: 100_000 * sim.Millisecond}
	for _, id := range []string{"exp1", "exp2", "exp3", "exp4"} {
		s, ok := PaperSpec(id, o)
		if !ok {
			t.Errorf("PaperSpec(%q) missing", id)
			continue
		}
		if s.Name != id {
			t.Errorf("PaperSpec(%q).Name = %q", id, s.Name)
		}
		if len(s.Points()) == 0 {
			t.Errorf("PaperSpec(%q) has no cells", id)
		}
	}
	if _, ok := PaperSpec("exp9", o); ok {
		t.Error("PaperSpec accepted an unknown experiment")
	}
}

// TestCellPointMapping: a grid point is the base point with the cell's
// dimensions written in, and a positive MTBF switches on the Exp.4 fault
// model (the failure-free cell keeps no restart hold-back).
func TestCellPointMapping(t *testing.T) {
	g := exp2Spec(Options{Reps: 3, Seed: 5, Duration: 120 * sim.Second}, []int{4})
	g.Schedulers, g.Lambdas, g.Sigmas = []string{"GOW"}, []float64{0.8}, []float64{2}
	g.MTBFs = []sim.Time{0, 100 * sim.Second}
	pts := g.Points()
	want := Point{
		Scheduler: "GOW", Lambda: 0.8, NumFiles: 16, DD: 4, Sigma: 2,
		Load: Exp2, Seed: 5, Reps: 3, Duration: 120 * sim.Second,
	}
	if len(pts) != 2 || !reflect.DeepEqual(pts[0], want) {
		t.Fatalf("points = %+v, want %+v first", pts, want)
	}
	p := pts[1]
	if p.Faults.MTBF != 100*sim.Second || p.Faults.MTTR != exp4MTTR {
		t.Errorf("fault config = %+v", p.Faults)
	}
	if p.RestartDelay != exp4RestartDelay {
		t.Errorf("restart delay = %v", p.RestartDelay)
	}
}

// testGrid is a small grid over two DDs, two rates and two schedulers.
func testGrid() Grid {
	g := Exp1Spec(Options{Reps: 2, Seed: 7})
	g.Schedulers, g.Lambdas, g.DDs = []string{"LOW", "NODC"}, []float64{0.2, 0.6}, []int{1, 2}
	return g
}

func TestSpecCellOrder(t *testing.T) {
	cells := testGrid().Points()
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 2 dd x 2 lambda x 2 sched", len(cells))
	}
	// Documented nesting: DD-major, then lambda, scheduler fastest.
	want := []struct {
		dd     int
		lambda float64
		sched  string
	}{
		{1, 0.2, "LOW"}, {1, 0.2, "NODC"}, {1, 0.6, "LOW"}, {1, 0.6, "NODC"},
		{2, 0.2, "LOW"}, {2, 0.2, "NODC"}, {2, 0.6, "LOW"}, {2, 0.6, "NODC"},
	}
	for i, c := range cells {
		if c.DD != want[i].dd || c.Lambda != want[i].lambda || c.Scheduler != want[i].sched {
			t.Errorf("cell %d = (%d, %v, %s), want %+v", i, c.DD, c.Lambda, c.Scheduler, want[i])
		}
	}
}

func TestCellKeyIdentity(t *testing.T) {
	cells := testGrid().Points()
	seen := map[string]bool{}
	for _, c := range cells {
		k := gridKey(c)
		if seen[k] {
			t.Errorf("duplicate key %q", k)
		}
		seen[k] = true
	}
	// The key bytes seed every replication (unitSeed), so they are part of
	// every replicated table: pin them.
	if got, want := gridKey(cells[0]), "load=exp1 sched=LOW lambda=0.2 nf=16 dd=1 sigma=0 mpl=0 k=0 mtbf=0 dur=0"; got != want {
		t.Errorf("Key changed:\n got  %q\n want %q", got, want)
	}
}

// TestRunSeedsAreSubstreams: every (cell, replication) unit of a grid runs
// on its own substream of the root seed, so no two units share a seed and
// a unit's seed does not depend on where it sits in the grid.
func TestRunSeedsAreSubstreams(t *testing.T) {
	g := testGrid()
	cells, root := g.Points(), g.Base.Seed
	seeds := map[int64]bool{}
	for _, c := range cells {
		for r := 0; r < g.Base.Reps; r++ {
			seed := unitSeed(root, c, r)
			if seeds[seed] {
				t.Errorf("cell %s rep %d reuses seed %d", gridKey(c), r, seed)
			}
			seeds[seed] = true
			if want := sim.DeriveSeed(root, gridKey(c)+"/rep="+strconv.Itoa(r)); seed != want {
				t.Errorf("cell %s rep %d: seed %d, want substream %d", gridKey(c), r, seed, want)
			}
		}
	}
	// A one-cell grid of the same point seeds it exactly as the full grid.
	one := g
	one.Schedulers, one.Lambdas, one.DDs = []string{cells[5].Scheduler}, []float64{cells[5].Lambda}, []int{cells[5].DD}
	if got, want := unitSeed(root, one.Points()[0], 1), unitSeed(root, cells[5], 1); got != want {
		t.Errorf("seed depends on grid position: %d vs %d", got, want)
	}
	if unitSeed(root+1, cells[0], 0) == unitSeed(root, cells[0], 0) {
		t.Error("seed ignores the root seed")
	}
}

// aggInput builds a two-cell grid with three known replications each.
func aggInput() (Grid, []metrics.Summary) {
	g := Exp1Spec(Options{Reps: 3})
	g.Schedulers, g.Lambdas = []string{"LOW", "GOW"}, []float64{0.5}
	mk := func(rtSec, tps float64) metrics.Summary {
		return metrics.Summary{
			MeanRT: sim.FromSeconds(rtSec), P95RT: sim.FromSeconds(2 * rtSec),
			TPS: tps, Completions: 100,
		}
	}
	return g, []metrics.Summary{
		mk(10, 0.4), mk(20, 0.5), mk(30, 0.6),
		mk(7, 0.5), mk(7, 0.5), mk(7, 0.5),
	}
}

// TestAggregateMoments: each row folds its replications into the mean,
// the Student-t 95% half-width and the mean p95 (columns 8 to 13: R,
// meanRT, its ±95%, p95RT, TPS, its ±95%).
func TestAggregateMoments(t *testing.T) {
	g, sums := aggInput()
	rows := g.table(sums).Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 cells", len(rows))
	}
	a := rows[0]
	if a[0] != "LOW" || a[8] != "3" {
		t.Fatalf("first row: %v", a)
	}
	if a[9] != "20.0" {
		t.Errorf("mean RT = %s, want 20.0", a[9])
	}
	// Sample stddev 10; t(df=2, 95%) = 4.303: half-width = 4.303 * 10 / sqrt(3).
	if want := report.F(4.303*10/math.Sqrt(3), 1); a[10] != want {
		t.Errorf("CI95 = %s, want %s", a[10], want)
	}
	if a[11] != "40.0" || a[12] != "0.500" || a[13] != report.F(4.303*0.1/math.Sqrt(3), 3) {
		t.Errorf("p95 mean, TPS and its CI: %v", a)
	}
	if b := rows[1]; b[0] != "GOW" || b[9] != "7.0" || b[10] != "0.0" {
		t.Errorf("constant cell should have mean 7 and zero CI: %v", b)
	}
	g.Schedulers, g.Base.Reps = g.Schedulers[:1], 1
	if single := g.table(sums[:1]).Rows[0]; single[8] != "1" || single[10] != "0.0" {
		t.Errorf("R=1 cell should have zero CI: %v", single)
	}
}

func TestAggregateTableSurfacesP95AndCI(t *testing.T) {
	g, sums := aggInput()
	tbl := g.table(sums)
	s := tbl.String()
	for _, col := range []string{"meanRT(s)", "p95RT(s)", "±95%", "TPS"} {
		if !strings.Contains(s, col) {
			t.Errorf("table missing column %q:\n%s", col, s)
		}
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("ragged row %v", row)
		}
	}
}

// TestSolveLambdaReplicated: a positive reps argument must override the
// point's replication count, so the bisection probes the replicated mean
// rather than a single seed.
func TestSolveLambdaReplicated(t *testing.T) {
	p := Point{
		Scheduler: "LOW", NumFiles: 16, DD: 1, Load: Exp1,
		Seed: 5, Reps: 1, Duration: 100_000 * sim.Millisecond,
	}
	target := 20 * sim.Second
	got := SolveLambdaAtRT(p, 3, target, 0.1, 1.0, 0.05)

	explicit := p
	explicit.Reps = 3
	want := SolveLambdaAtRT(explicit, 0, target, 0.1, 1.0, 0.05)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("reps=3 solve = %v, explicit Reps=3 solve = %v", got, want)
	}

	// And the replicated probe really is Run at Reps=3: the solution must sit
	// on the replicated mean's knee — RT(lo) <= target at Reps=3.
	probe := explicit
	probe.Lambda = want
	if rt := Run(probe).MeanRT; rt > target {
		t.Errorf("solved λ=%v has replicated RT %v > target %v", want, rt, target)
	}
}
