package workload

import (
	"fmt"

	"batchsched/internal/model"
	"batchsched/internal/sim"
)

// HeavyTailed scales each transaction's actual and declared step costs by a
// per-transaction Pareto multiplier, turning any base workload into a
// heavy-tailed cost mix: most transactions shrink slightly, a few grow by
// up to 100x (heavyTailCap). The multiplier's scale is chosen so the
// unbounded draw has unit mean ((alpha-1)/alpha for shape alpha > 1), so
// the offered load is approximately unchanged (the cap trims the mean
// slightly below 1).
//
// Cost and DeclaredCost scale together: cost-declaration error is
// Experiment 3's axis (WithError), not this one, and the two wrappers
// compose.
type HeavyTailed struct {
	// Gen is the underlying generator.
	Gen Generator
	// Alpha is the Pareto shape (> 1; smaller = heavier tail; 1.5 is a
	// reasonably violent default).
	Alpha float64
}

// heavyTailCap bounds HeavyTailed's cost multiplier.
const heavyTailCap = 100

// NewHeavyTailed wraps gen with a unit-mean Pareto cost multiplier.
func NewHeavyTailed(gen Generator, alpha float64) HeavyTailed {
	if alpha <= 1 {
		panic(fmt.Sprintf("workload: heavy-tailed costs need Alpha > 1 (finite mean), got %g", alpha))
	}
	return HeavyTailed{Gen: gen, Alpha: alpha}
}

// Steps draws steps from the wrapped generator and scales their costs by
// one shared multiplier (one draw per transaction, after the base draws, so
// wrapping never perturbs the base generator's stream).
func (g HeavyTailed) Steps(rng *sim.RNG) []model.Step {
	steps := g.Gen.Steps(rng)
	m := g.multiplier(rng)
	for i := range steps {
		steps[i].Cost *= m
		steps[i].DeclaredCost *= m
	}
	return steps
}

func (g HeavyTailed) multiplier(rng *sim.RNG) float64 {
	if g.Alpha <= 1 {
		panic(fmt.Sprintf("workload: heavy-tailed costs need Alpha > 1, got %g", g.Alpha))
	}
	xm := (g.Alpha - 1) / g.Alpha // unit mean for the unbounded draw
	m := rng.Pareto(g.Alpha, xm)
	if m > heavyTailCap {
		m = heavyTailCap
	}
	return m
}
