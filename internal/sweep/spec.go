// Package sweep holds the replicated-grid primitives the experiments share:
// a declarative Spec expands into a deterministic grid of simulation Cells,
// UnitSeed gives replication r of a cell its own RNG substream derived from
// the root seed and the cell key, ForEach is the bounded panic-isolated
// worker pool every fan-out runs on, and Aggregate and Table fold each
// cell's replications into mean and 95% CI rows.
//
// The package knows nothing about how a cell is simulated:
// internal/experiments binds cells to the paper's machine model (RunGrid,
// behind cmd/paperbench -grid), so sweep sits below experiments in the
// dependency order and its worker pool also serves the artifact
// regenerators.
package sweep

import (
	"fmt"

	"batchsched/internal/sim"
)

// Spec declares a parameter grid: the cross product of every listed
// dimension, replicated Reps times per cell. Zero-valued dimensions default
// to one-element grids so a spec only names what it varies.
type Spec struct {
	// Name labels the grid in outputs ("exp1", ...).
	Name string
	// Load selects the workload generator ("exp1" or "exp2"; default exp1).
	Load string
	// Schedulers is the scheduler grid.
	Schedulers []string
	// Lambdas is the arrival-rate grid in TPS.
	Lambdas []float64
	// NumFiles is the database-size grid (default [16]).
	NumFiles []int
	// DDs is the degree-of-declustering grid (default [1]).
	DDs []int
	// Sigmas is the estimation-error grid (default [0]).
	Sigmas []float64
	// MPLs is the C2PL+M admission-limit grid (default [0] = scheduler
	// default; ignored by the other schedulers).
	MPLs []int
	// Ks is the LOW conflict-bound grid (default [0] = the paper's K=2).
	Ks []int
	// MTBFSeconds is the per-node mean-time-between-failures grid in
	// seconds (default [0] = failure-free; >0 enables the Exp.4 fault
	// model).
	MTBFSeconds []float64
	// Reps is the number of seed replications per cell (default 1).
	Reps int
	// Seed is the root seed every substream derives from (default 1).
	Seed int64
	// DurationSeconds overrides the simulated span per run (0 = the
	// paper's 2000 s).
	DurationSeconds float64
}

// Norm fills the defaulted dimensions in, returning a spec whose grid
// fields are all non-empty.
func (s Spec) Norm() Spec {
	if s.Load == "" {
		s.Load = "exp1"
	}
	if len(s.NumFiles) == 0 {
		s.NumFiles = []int{16}
	}
	if len(s.DDs) == 0 {
		s.DDs = []int{1}
	}
	if len(s.Sigmas) == 0 {
		s.Sigmas = []float64{0}
	}
	if len(s.MPLs) == 0 {
		s.MPLs = []int{0}
	}
	if len(s.Ks) == 0 {
		s.Ks = []int{0}
	}
	if len(s.MTBFSeconds) == 0 {
		s.MTBFSeconds = []float64{0}
	}
	if s.Reps < 1 {
		s.Reps = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Cell is one fully specified grid point.
type Cell struct {
	Scheduler       string
	Lambda          float64
	NumFiles        int
	DD              int
	Sigma           float64
	MPL             int
	K               int
	MTBFSeconds     float64
	Load            string
	DurationSeconds float64
}

// Key is the canonical identity of the cell's parameters: with the
// replication number it seeds the cell's RNG substreams, so a cell's draws
// never depend on grid position or execution order.
func (c Cell) Key() string {
	return fmt.Sprintf("load=%s sched=%s lambda=%g nf=%d dd=%d sigma=%g mpl=%d k=%d mtbf=%g dur=%g",
		c.Load, c.Scheduler, c.Lambda, c.NumFiles, c.DD, c.Sigma, c.MPL, c.K, c.MTBFSeconds, c.DurationSeconds)
}

// UnitSeed is the substream derivation: replication rep of the cell runs on
// DeriveSeed(root, "<cell key>/rep=<rep>"). The seed depends only on the
// root seed and the cell's parameters — not on grid position, worker
// assignment or completion order — so every unit is reproducible in
// isolation.
func UnitSeed(root int64, c Cell, rep int) int64 {
	return sim.DeriveSeed(root, fmt.Sprintf("%s/rep=%d", c.Key(), rep))
}

// Cells expands the spec into its grid, in the documented nesting order —
// NumFiles, DD, MTBF, Sigma, Lambda, Scheduler, MPL, K, outermost first —
// which the artifact regenerators rely on for positional row/column
// indexing (rows vary the slow dimensions, scheduler columns vary fastest).
func (s Spec) Cells() []Cell {
	n := s.Norm()
	var cells []Cell
	for _, nf := range n.NumFiles {
		for _, dd := range n.DDs {
			for _, mtbf := range n.MTBFSeconds {
				for _, sigma := range n.Sigmas {
					for _, lambda := range n.Lambdas {
						for _, sched := range n.Schedulers {
							for _, mpl := range n.MPLs {
								for _, k := range n.Ks {
									cells = append(cells, Cell{
										Scheduler:       sched,
										Lambda:          lambda,
										NumFiles:        nf,
										DD:              dd,
										Sigma:           sigma,
										MPL:             mpl,
										K:               k,
										MTBFSeconds:     mtbf,
										Load:            n.Load,
										DurationSeconds: n.DurationSeconds,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}
