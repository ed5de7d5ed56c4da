package experiments

import (
	"batchsched/internal/admit"
	"batchsched/internal/fault"
	"batchsched/internal/metrics"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/sweep"
)

// This file binds the sweep engine to the paper's machine model: the four
// experiments' point grids expressed as sweep.Specs (so cmd/sweep, the
// artifact regenerators and replicated studies share one point generator,
// with R=1 regeneration as the degenerate case), and the Cell-to-Point /
// RunFunc adapters the engine simulates cells through.

// fig8Lambdas and fig11Lambdas are the paper's arrival-rate grids.
var (
	fig8Lambdas  = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4}
	fig11Lambdas = []float64{0.2, 0.4, 0.6, 0.8, 0.85, 0.9, 1.0, 1.1, 1.2, 1.4}
)

// exp3Sigmas is Fig. 13's estimation-error grid.
var exp3Sigmas = []float64{0, 0.5, 1, 2, 5, 10}

// specBase carries the Options knobs every paper spec shares.
func specBase(o Options) sweep.Spec {
	o = o.norm()
	return sweep.Spec{
		Reps:            o.Reps,
		Seed:            o.Seed,
		DurationSeconds: o.Duration.Seconds(),
	}
}

// Exp1Spec is Experiment 1's primary grid: the six schedulers over the
// Fig. 8 arrival rates at NumFiles=16, DD=1.
func Exp1Spec(o Options) sweep.Spec {
	s := specBase(o)
	s.Name, s.Load = "exp1", "exp1"
	s.Schedulers = sixSchedulers
	s.Lambdas = fig8Lambdas
	return s
}

// Exp2Spec is Experiment 2's grid: the hot-set workload at the paper's
// λ=1.2 measurement point over the declustering degrees.
func Exp2Spec(o Options) sweep.Spec {
	return exp2Spec(o, []int{1, 2, 4, 8})
}

func exp2Spec(o Options, dds []int) sweep.Spec {
	s := specBase(o)
	s.Name, s.Load = "exp2", "exp2"
	s.Schedulers = sixSchedulers
	s.Lambdas = []float64{1.2}
	s.DDs = dds
	return s
}

// Exp3Spec is Experiment 3's grid: GOW and LOW under declared-cost error
// σ over the declustering degrees (λ=1.2; Fig. 13 itself re-solves the
// RT=70s arrival rate per cell).
func Exp3Spec(o Options) sweep.Spec {
	return exp3Spec(o, exp3Sigmas, []int{1, 2, 4})
}

func exp3Spec(o Options, sigmas []float64, dds []int) sweep.Spec {
	s := specBase(o)
	s.Name, s.Load = "exp3", "exp1"
	s.Schedulers = []string{"GOW", "LOW"}
	s.Lambdas = []float64{1.2}
	s.DDs = dds
	s.Sigmas = sigmas
	return s
}

// Exp4Spec is the fault extension's grid: the six schedulers over the
// per-node MTBF ladder at λ=0.6, DD=2 (MTBF 0 = failure-free reference).
func Exp4Spec(o Options) sweep.Spec {
	s := specBase(o)
	s.Name, s.Load = "exp4", "exp1"
	s.Schedulers = sixSchedulers
	s.Lambdas = []float64{exp4Lambda}
	s.DDs = []int{exp4DD}
	mtbfs := make([]float64, len(Exp4MTBFs))
	for i, m := range Exp4MTBFs {
		mtbfs[i] = m.Seconds()
	}
	s.MTBFSeconds = mtbfs
	return s
}

// PaperSpec returns the named experiment's sweep spec ("exp1" .. "exp4").
func PaperSpec(id string, o Options) (sweep.Spec, bool) {
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
	return sweep.Spec{}, false
}

// CellPoint maps a sweep cell onto a simulation point (one replication; the
// caller chooses seed and replication policy). Cells with a positive MTBF
// run the Exp.4 fault model: crashes at that MTBF with the experiment's
// MTTR and restart hold-back.
func CellPoint(c sweep.Cell) Point {
	p := Point{
		Scheduler: c.Scheduler,
		Lambda:    c.Lambda,
		NumFiles:  c.NumFiles,
		DD:        c.DD,
		Sigma:     c.Sigma,
		MPL:       c.MPL,
		K:         c.K,
		Load:      Workload(c.Load),
		Reps:      1,
	}
	if c.DurationSeconds > 0 {
		p.Duration = sim.FromSeconds(c.DurationSeconds)
	}
	if c.MTBFSeconds > 0 {
		p.Faults = fault.Config{MTBF: sim.FromSeconds(c.MTBFSeconds), MTTR: exp4MTTR}
		p.RestartDelay = exp4RestartDelay
	}
	if c.Service {
		// Service cells reinterpret the MPL dimension as the admission
		// window (the machine requires Config.MPL = 0 in service mode, and
		// the window is the open-system analogue of the admission limit).
		pol := admit.DefaultPolicy()
		if c.MPL > 0 {
			pol.MPL = c.MPL
		}
		p.Service = &pol
		p.Arrival = c.Arrival
		p.MPL = 0
	}
	return p
}

// RunCell is the sweep.RunFunc binding: it simulates one replication of the
// cell at the given substream seed. An unknown scheduler name returns an
// error (instead of the panic Run raises) so one bad cell fails cleanly
// inside the pool. It bypasses the replication memo: every sweep unit has
// its own sweep.UnitSeed, so units never repeat.
func RunCell(c sweep.Cell, seed int64) (metrics.Summary, error) {
	if _, err := sched.New(c.Scheduler, sched.DefaultParams()); err != nil {
		return metrics.Summary{}, err
	}
	return runObserved(CellPoint(c), seed, nil), nil
}

// artifactPoint maps a cell onto a point with the artifact seeding
// convention — Seed=o.Seed with replications Seed+r averaged, exactly Run's
// Point semantics — so spec-generated artifacts reproduce the pre-sweep
// output byte for byte. (cmd/sweep instead derives independent substreams
// per replication via sweep.UnitSeed.)
func artifactPoint(o Options, c sweep.Cell) Point {
	p := CellPoint(c)
	p.Seed = o.Seed
	p.Reps = o.Reps
	if o.Duration > 0 {
		p.Duration = o.Duration
	}
	return p
}

// runCells simulates each cell under the artifact seeding convention, in
// cell order.
func runCells(o Options, cells []sweep.Cell) []metrics.Summary {
	o = o.norm()
	pts := make([]Point, len(cells))
	for i, c := range cells {
		pts[i] = artifactPoint(o, c)
	}
	return RunAll(pts)
}
