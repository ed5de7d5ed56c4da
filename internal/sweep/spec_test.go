package sweep

import (
	"strconv"
	"testing"

	"batchsched/internal/sim"
)

func testSpec() Spec {
	return Spec{
		Name:       "t",
		Schedulers: []string{"LOW", "NODC"},
		Lambdas:    []float64{0.2, 0.6},
		DDs:        []int{1, 2},
		Reps:       2,
		Seed:       7,
	}
}

func TestSpecDefaults(t *testing.T) {
	n := (Spec{Schedulers: []string{"LOW"}, Lambdas: []float64{1}}).Norm()
	if n.Load != "exp1" || n.NumFiles[0] != 16 || n.DDs[0] != 1 || n.Reps != 1 || n.Seed != 1 {
		t.Errorf("defaults wrong: %+v", n)
	}
}

func TestSpecCellOrder(t *testing.T) {
	cells := testSpec().Cells()
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
	cells := testSpec().Cells()
	seen := map[string]bool{}
	for _, c := range cells {
		k := c.Key()
		if seen[k] {
			t.Errorf("duplicate key %q", k)
		}
		seen[k] = true
	}
	// The key bytes seed every replication (UnitSeed), so they are part of
	// every replicated table: pin them.
	if got, want := cells[0].Key(), "load=exp1 sched=LOW lambda=0.2 nf=16 dd=1 sigma=0 mpl=0 k=0 mtbf=0 dur=0"; got != want {
		t.Errorf("Key changed:\n got  %q\n want %q", got, want)
	}
}

// TestRunSeedsAreSubstreams: every (cell, replication) unit of a grid runs
// on its own substream of the root seed, so no two units share a seed and
// a unit's seed does not depend on where it sits in the grid.
func TestRunSeedsAreSubstreams(t *testing.T) {
	spec := testSpec().Norm()
	cells := spec.Cells()
	seeds := map[int64]bool{}
	for _, c := range cells {
		for r := 0; r < spec.Reps; r++ {
			seed := UnitSeed(spec.Seed, c, r)
			if seeds[seed] {
				t.Errorf("cell %s rep %d reuses seed %d", c.Key(), r, seed)
			}
			seeds[seed] = true
			if want := sim.DeriveSeed(spec.Seed, c.Key()+"/rep="+strconv.Itoa(r)); seed != want {
				t.Errorf("cell %s rep %d: seed %d, want substream %d", c.Key(), r, seed, want)
			}
		}
	}
	// A one-cell grid of the same point seeds it exactly as the full grid.
	one := Spec{Schedulers: []string{cells[5].Scheduler}, Lambdas: []float64{cells[5].Lambda},
		DDs: []int{cells[5].DD}, Seed: spec.Seed}
	if got, want := UnitSeed(spec.Seed, one.Cells()[0], 1), UnitSeed(spec.Seed, cells[5], 1); got != want {
		t.Errorf("seed depends on grid position: %d vs %d", got, want)
	}
	if UnitSeed(spec.Seed+1, cells[0], 0) == UnitSeed(spec.Seed, cells[0], 0) {
		t.Error("seed ignores the root seed")
	}
}
