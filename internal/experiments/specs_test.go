package experiments

import (
	"math"
	"reflect"
	"testing"

	"batchsched/internal/sim"
	"batchsched/internal/sweep"
)

func TestExp1SpecShape(t *testing.T) {
	o := Options{Duration: 100_000 * sim.Millisecond}
	cells := Exp1Spec(o).Cells()
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
			if c.NumFiles != 16 || c.DD != 1 || c.Load != "exp1" {
				t.Fatalf("cell %d base params: %+v", i, c)
			}
		}
	}
}

func TestExp4SpecShape(t *testing.T) {
	cells := Exp4Spec(Options{Duration: 100_000 * sim.Millisecond}).Cells()
	if want := len(Exp4MTBFs) * len(sixSchedulers); len(cells) != want {
		t.Fatalf("exp4 cells = %d, want %d", len(cells), want)
	}
	// MTBF-major, scheduler fastest — the Exp4 table reads rows positionally.
	for mi, mtbf := range Exp4MTBFs {
		c := cells[mi*len(sixSchedulers)]
		if c.MTBFSeconds != mtbf.Seconds() || c.Lambda != exp4Lambda || c.DD != exp4DD {
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
		if len(s.Cells()) == 0 {
			t.Errorf("PaperSpec(%q) has no cells", id)
		}
	}
	if _, ok := PaperSpec("exp9", o); ok {
		t.Error("PaperSpec accepted an unknown experiment")
	}
}

func TestCellPointMapping(t *testing.T) {
	c := sweep.Cell{
		Scheduler: "GOW", Lambda: 0.8, NumFiles: 32, DD: 4, Sigma: 2,
		MPL: 8, K: 3, Load: "exp2", DurationSeconds: 120,
	}
	p := CellPoint(c)
	want := Point{
		Scheduler: "GOW", Lambda: 0.8, NumFiles: 32, DD: 4, Sigma: 2,
		MPL: 8, K: 3, Load: Exp2, Reps: 1, Duration: 120 * sim.Second,
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("CellPoint = %+v, want %+v", p, want)
	}
	// A positive MTBF switches on the Exp.4 fault model.
	c.MTBFSeconds = 100
	p = CellPoint(c)
	if p.Faults.MTBF != 100*sim.Second || p.Faults.MTTR != exp4MTTR {
		t.Errorf("fault config = %+v", p.Faults)
	}
	if p.RestartDelay != exp4RestartDelay {
		t.Errorf("restart delay = %v", p.RestartDelay)
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
