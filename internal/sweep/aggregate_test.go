package sweep

import (
	"math"
	"strings"
	"testing"

	"batchsched/internal/metrics"
	"batchsched/internal/sim"
)

// aggInput builds two cells with three known replications each.
func aggInput() ([]Cell, []metrics.Summary) {
	cells := []Cell{
		{Scheduler: "LOW", Lambda: 0.5, NumFiles: 16, DD: 1, Load: "exp1"},
		{Scheduler: "GOW", Lambda: 0.5, NumFiles: 16, DD: 1, Load: "exp1"},
	}
	mk := func(rtSec, tps float64) metrics.Summary {
		return metrics.Summary{
			MeanRT: sim.FromSeconds(rtSec), P95RT: sim.FromSeconds(2 * rtSec),
			TPS: tps, Completions: 100,
		}
	}
	return cells, []metrics.Summary{
		mk(10, 0.4), mk(20, 0.5), mk(30, 0.6),
		mk(7, 0.5), mk(7, 0.5), mk(7, 0.5),
	}
}

func TestAggregateMoments(t *testing.T) {
	aggs := Aggregate(aggInput())
	if len(aggs) != 2 {
		t.Fatalf("aggs = %d, want 2 cells", len(aggs))
	}
	a := aggs[0]
	if a.Cell.Scheduler != "LOW" || a.Reps != 3 {
		t.Fatalf("first agg: %+v", a)
	}
	if math.Abs(a.MeanRTSeconds.Mean-20) > 1e-6 {
		t.Errorf("mean RT = %v, want 20", a.MeanRTSeconds.Mean)
	}
	// Sample stddev 10; t(df=2, 95%) = 4.303: half-width = 4.303 * 10 / sqrt(3).
	if want := 4.303 * 10 / math.Sqrt(3); math.Abs(a.MeanRTSeconds.CI95-want) > 1e-3 {
		t.Errorf("CI95 = %v, want %v", a.MeanRTSeconds.CI95, want)
	}
	if math.Abs(a.P95RTSeconds-40) > 1e-6 {
		t.Errorf("p95 mean = %v, want 40", a.P95RTSeconds)
	}
	if b := aggs[1]; b.Cell.Scheduler != "GOW" || b.MeanRTSeconds.Mean != 7 || b.MeanRTSeconds.CI95 != 0 {
		t.Errorf("constant cell should have mean 7 and zero CI: %+v", b)
	}
	cells, sums := aggInput()
	if single := Aggregate(cells[:1], sums[:1])[0]; single.Reps != 1 || single.MeanRTSeconds.CI95 != 0 {
		t.Errorf("R=1 cell should have zero CI: %+v", single)
	}
}

func TestAggregateTableSurfacesP95AndCI(t *testing.T) {
	spec := Spec{Name: "t", Schedulers: []string{"LOW", "GOW"}, Lambdas: []float64{0.5}, Reps: 3}
	tbl := Table(spec, Aggregate(aggInput()))
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
