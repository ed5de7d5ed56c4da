package experiments

import (
	"fmt"

	"batchsched/internal/fault"
	"batchsched/internal/metrics"
	"batchsched/internal/report"
	"batchsched/internal/sim"
)

// This file holds the four experiments' parameter grids. A Grid expands
// into simulation Points, so the artifact regenerators and the replicated
// grids of cmd/paperbench -grid (RunGrid) share one point generator, with
// R=1 regeneration as the degenerate case.

// fig8Lambdas and fig11Lambdas are the paper's arrival-rate grids.
var (
	fig8Lambdas  = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4}
	fig11Lambdas = []float64{0.2, 0.4, 0.6, 0.8, 0.85, 0.9, 1.0, 1.1, 1.2, 1.4}
)

// exp3Sigmas is Fig. 13's estimation-error grid.
var exp3Sigmas = []float64{0, 0.5, 1, 2, 5, 10}

// Grid declares one experiment's parameter grid: the cross product of the
// listed dimensions over Base, which carries every fixed parameter (load,
// NumFiles 16, seed, replications per point and simulated window).
type Grid struct {
	// Name labels the grid in outputs ("exp1", ...).
	Name string
	// Base is the point every grid point starts from.
	Base Point
	// DDs, MTBFs, Sigmas, Lambdas and Schedulers are the varied dimensions.
	// A positive MTBF runs the Exp.4 fault model at that per-node MTBF.
	DDs        []int
	MTBFs      []sim.Time
	Sigmas     []float64
	Lambdas    []float64
	Schedulers []string
}

// specBase is the grid every paper spec starts from: the Options knobs in
// Base and one-element DD, MTBF and σ dimensions.
func specBase(o Options) Grid {
	return Grid{Base: o.norm().point(), DDs: []int{1}, MTBFs: []sim.Time{0}, Sigmas: []float64{0}}
}

// Exp1Spec is Experiment 1's primary grid: the six schedulers over the
// Fig. 8 arrival rates at NumFiles=16, DD=1.
func Exp1Spec(o Options) Grid {
	g := specBase(o)
	g.Name = "exp1"
	g.Schedulers = sixSchedulers
	g.Lambdas = fig8Lambdas
	return g
}

// Exp2Spec is Experiment 2's grid: the hot-set workload at the paper's
// λ=1.2 measurement point over the declustering degrees.
func Exp2Spec(o Options) Grid {
	return exp2Spec(o, []int{1, 2, 4, 8})
}

func exp2Spec(o Options, dds []int) Grid {
	g := specBase(o)
	g.Name, g.Base.Load = "exp2", Exp2
	g.Schedulers = sixSchedulers
	g.Lambdas = []float64{1.2}
	g.DDs = dds
	return g
}

// Exp3Spec is Experiment 3's grid: GOW and LOW under declared-cost error
// σ over the declustering degrees (λ=1.2; Fig. 13 itself re-solves the
// RT=70s arrival rate per point).
func Exp3Spec(o Options) Grid {
	return exp3Spec(o, exp3Sigmas, []int{1, 2, 4})
}

func exp3Spec(o Options, sigmas []float64, dds []int) Grid {
	g := specBase(o)
	g.Name = "exp3"
	g.Schedulers = []string{"GOW", "LOW"}
	g.Lambdas = []float64{1.2}
	g.DDs = dds
	g.Sigmas = sigmas
	return g
}

// Exp4Spec is the fault extension's grid: the six schedulers over the
// per-node MTBF ladder at λ=0.6, DD=2 (MTBF 0 = failure-free reference).
func Exp4Spec(o Options) Grid {
	g := specBase(o)
	g.Name = "exp4"
	g.Schedulers = sixSchedulers
	g.Lambdas = []float64{exp4Lambda}
	g.DDs = []int{exp4DD}
	g.MTBFs = Exp4MTBFs
	return g
}

// PaperSpec returns the named experiment's grid ("exp1" .. "exp4").
func PaperSpec(id string, o Options) (Grid, bool) {
	switch id {
	case "exp1":
		return Exp1Spec(o), true
	case "exp2":
		return Exp2Spec(o), true
	case "exp3":
		return Exp3Spec(o), true
	case "exp4":
		return Exp4Spec(o), true
	}
	return Grid{}, false
}

// Points expands the grid in its nesting order — DD, MTBF, σ, λ,
// scheduler, outermost first — which the artifact regenerators rely on for
// positional row/column indexing (rows vary the slow dimensions, scheduler
// columns vary fastest). Each point averages Base.Reps replications from
// Base.Seed, the artifact seeding convention. A point with a positive MTBF
// crashes nodes at that MTBF with the Exp.4 MTTR and restart hold-back.
func (g Grid) Points() []Point {
	var pts []Point
	for _, dd := range g.DDs {
		for _, mtbf := range g.MTBFs {
			for _, sigma := range g.Sigmas {
				for _, lambda := range g.Lambdas {
					for _, s := range g.Schedulers {
						p := g.Base
						p.DD, p.Sigma, p.Lambda, p.Scheduler = dd, sigma, lambda, s
						if mtbf > 0 {
							p.Faults = fault.Config{MTBF: mtbf, MTTR: exp4MTTR}
							p.RestartDelay = exp4RestartDelay
						}
						pts = append(pts, p)
					}
				}
			}
		}
	}
	return pts
}

// gridKey is the canonical identity of a grid point's parameters: with the
// replication number it seeds the point's RNG substreams, so its bytes are
// part of every replicated table.
func gridKey(p Point) string {
	return fmt.Sprintf("load=%s sched=%s lambda=%g nf=%d dd=%d sigma=%g mpl=%d k=%d mtbf=%g dur=%g",
		p.Load, p.Scheduler, p.Lambda, p.NumFiles, p.DD, p.Sigma, p.MPL, p.K,
		p.Faults.MTBF.Seconds(), p.Duration.Seconds())
}

// unitSeed is the substream derivation: replication rep of a grid point
// runs on DeriveSeed(root, "<grid key>/rep=<rep>"). The seed depends only
// on the root seed and the point's parameters — not on grid position,
// worker assignment or completion order — so every unit is reproducible in
// isolation.
func unitSeed(root int64, p Point, rep int) int64 {
	return sim.DeriveSeed(root, fmt.Sprintf("%s/rep=%d", gridKey(p), rep))
}

// RunGrid simulates the grid with Base.Reps replications per point and
// tabulates them (table). Replication r of a point runs at
// unitSeed(Base.Seed, point, r), an independent substream per unit, through
// RunAll and so through the replication memo and the shared worker pool.
func RunGrid(g Grid) *report.Table {
	var pts []Point
	for _, c := range g.Points() {
		for r := 0; r < g.Base.Reps; r++ {
			p := c
			p.Seed, p.Reps = unitSeed(g.Base.Seed, c, r), 1
			pts = append(pts, p)
		}
	}
	return g.table(RunAll(pts))
}

// table prints one row per grid point, its replications — Base.Reps
// consecutive summaries of sums per point, in point order — folded by
// metrics.AverageWithCI: mean response time and throughput with their 95%
// half-widths, and the mean p95 response time.
func (g Grid) table(sums []metrics.Summary) *report.Table {
	cells, reps := g.Points(), g.Base.Reps
	t := &report.Table{
		Title: fmt.Sprintf("Sweep %q — %d cells × R=%d (root seed %d).", g.Name, len(cells), reps, g.Base.Seed),
		Note:  "meanRT/TPS ±: Student-t 95% confidence half-width across replications.",
		Header: []string{"scheduler", "λ", "NF", "DD", "σ", "MPL", "K", "MTBF(s)", "R",
			"meanRT(s)", "±95%", "p95RT(s)", "TPS", "±95%"},
	}
	for i, c := range cells {
		avg, ci := metrics.AverageWithCI(sums[i*reps : (i+1)*reps])
		t.AddRow(c.Scheduler, report.F(c.Lambda, 2), fmt.Sprint(c.NumFiles), fmt.Sprint(c.DD),
			report.F(c.Sigma, 1), fmt.Sprint(c.MPL), fmt.Sprint(c.K), report.F(c.Faults.MTBF.Seconds(), 0),
			fmt.Sprint(reps),
			report.F(avg.MeanRT.Seconds(), 1), report.F(ci.MeanRT.Seconds(), 1),
			report.F(avg.P95RT.Seconds(), 1),
			report.F(avg.TPS, 3), report.F(ci.TPS, 3))
	}
	return t
}
