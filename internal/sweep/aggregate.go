package sweep

import (
	"fmt"

	"batchsched/internal/metrics"
	"batchsched/internal/report"
	"batchsched/internal/stats"
)

// Stat digests one metric across a cell's replications.
type Stat struct {
	// Mean is the sample mean; CI95 the Student-t 95% confidence
	// half-width on it (0 with fewer than two replications).
	Mean, CI95 float64
}

// Agg is one cell's replication-folded row.
type Agg struct {
	// Cell is the grid point.
	Cell Cell
	// Reps is the number of replications folded in.
	Reps int
	// MeanRTSeconds and TPS aggregate each replication's mean response time
	// and throughput.
	MeanRTSeconds, TPS Stat
	// P95RTSeconds is the mean of the replications' p95 response times.
	P95RTSeconds float64
}

// Aggregate folds each cell's replications into one row, in cell order.
// sums holds the cells' replications in turn, the same number per cell.
func Aggregate(cells []Cell, sums []metrics.Summary) []Agg {
	reps := len(sums) / len(cells)
	stat := func(s *stats.Sample) Stat { return Stat{Mean: s.Mean(), CI95: s.CI95()} }
	aggs := make([]Agg, len(cells))
	for i, c := range cells {
		var meanRT, p95RT, tps stats.Sample
		for _, sum := range sums[i*reps : (i+1)*reps] {
			meanRT.Add(sum.MeanRT.Seconds())
			p95RT.Add(sum.P95RT.Seconds())
			tps.Add(sum.TPS)
		}
		aggs[i] = Agg{Cell: c, Reps: reps, MeanRTSeconds: stat(&meanRT), P95RTSeconds: p95RT.Mean(), TPS: stat(&tps)}
	}
	return aggs
}

// Table renders the aggregates with the sweep-table conventions: one row
// per cell, mean response time and throughput with their 95% half-widths,
// and p95 response time alongside the mean.
func Table(spec Spec, aggs []Agg) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Sweep %q — %d cells × R=%d (root seed %d).",
			spec.Name, len(spec.Cells()), spec.Norm().Reps, spec.Norm().Seed),
		Note: "meanRT/TPS ±: Student-t 95% confidence half-width across replications.",
		Header: []string{"scheduler", "λ", "NF", "DD", "σ", "MPL", "K", "MTBF(s)", "R",
			"meanRT(s)", "±95%", "p95RT(s)", "TPS", "±95%"},
	}
	for _, a := range aggs {
		c := a.Cell
		t.AddRow(c.Scheduler, report.F(c.Lambda, 2), fmt.Sprint(c.NumFiles), fmt.Sprint(c.DD),
			report.F(c.Sigma, 1), fmt.Sprint(c.MPL), fmt.Sprint(c.K), report.F(c.MTBFSeconds, 0),
			fmt.Sprint(a.Reps),
			report.F(a.MeanRTSeconds.Mean, 1), report.F(a.MeanRTSeconds.CI95, 1),
			report.F(a.P95RTSeconds, 1),
			report.F(a.TPS.Mean, 3), report.F(a.TPS.CI95, 3))
	}
	return t
}
