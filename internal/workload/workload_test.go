package workload

import (
	"math"
	"testing"

	"batchsched/internal/model"
	"batchsched/internal/sim"
)

func TestExp1Shape(t *testing.T) {
	g := NewExp1(16)
	rng := sim.NewRNG(1)
	for i := 0; i < 1000; i++ {
		steps := g.Steps(rng)
		if len(steps) != 4 {
			t.Fatalf("len = %d, want 4", len(steps))
		}
		f1, f2 := steps[0].File, steps[1].File
		if f1 == f2 {
			t.Fatal("F1 and F2 must be distinct")
		}
		if steps[2].File != f1 || steps[3].File != f2 {
			t.Fatal("write steps must revisit F1 and F2")
		}
		// The first two read steps take X locks (Experiment 1).
		if steps[0].Write || steps[0].LockMode != model.X {
			t.Fatalf("step 1 = %+v, want X-locked read", steps[0])
		}
		if steps[1].Write || steps[1].LockMode != model.X {
			t.Fatalf("step 2 = %+v, want X-locked read", steps[1])
		}
		if !steps[2].Write || !steps[3].Write {
			t.Fatal("steps 3-4 must write")
		}
		want := []float64{1, 5, 0.2, 1}
		for j, c := range want {
			if steps[j].Cost != c || steps[j].DeclaredCost != c {
				t.Fatalf("step %d cost = %g/%g, want %g", j+1, steps[j].Cost, steps[j].DeclaredCost, c)
			}
		}
		if int(f1) >= 16 || int(f2) >= 16 || f1 < 0 || f2 < 0 {
			t.Fatalf("file out of range: %d %d", f1, f2)
		}
	}
}

func TestExp1FileUniformity(t *testing.T) {
	g := NewExp1(8)
	rng := sim.NewRNG(9)
	counts := make(map[model.FileID]int)
	const n = 20000
	for i := 0; i < n; i++ {
		steps := g.Steps(rng)
		counts[steps[0].File]++
		counts[steps[1].File]++
	}
	for f, c := range counts {
		if c < 4500 || c > 5500 {
			t.Errorf("file %d drawn %d times, want ~5000", f, c)
		}
	}
}

func TestExp2Shape(t *testing.T) {
	g := NewExp2()
	if g.NumFiles() != 16 {
		t.Fatalf("NumFiles = %d, want 16", g.NumFiles())
	}
	rng := sim.NewRNG(2)
	for i := 0; i < 1000; i++ {
		steps := g.Steps(rng)
		if len(steps) != 3 {
			t.Fatalf("len = %d, want 3", len(steps))
		}
		b, f1, f2 := steps[0].File, steps[1].File, steps[2].File
		if int(b) >= 8 {
			t.Fatalf("B = %d, want read-only set [0,8)", b)
		}
		if int(f1) < 8 || int(f1) >= 16 || int(f2) < 8 || int(f2) >= 16 {
			t.Fatalf("hot files = %d,%d, want [8,16)", f1, f2)
		}
		if f1 == f2 {
			t.Fatal("hot files must be distinct")
		}
		if steps[0].Write || steps[0].LockMode != model.S {
			t.Fatal("B step is a plain S read")
		}
		if !steps[1].Write || !steps[2].Write {
			t.Fatal("hot steps write")
		}
	}
}

func TestWithErrorPerturbsDeclaredOnly(t *testing.T) {
	g := WithError{Gen: NewExp1(16), Sigma: 0.5}
	rng := sim.NewRNG(3)
	var declared, actual float64
	changed := 0
	const n = 5000
	for i := 0; i < n; i++ {
		for _, st := range g.Steps(rng) {
			declared += st.DeclaredCost
			actual += st.Cost
			if st.DeclaredCost != st.Cost {
				changed++
			}
			if st.DeclaredCost < 0 {
				t.Fatal("declared cost must never be negative")
			}
		}
	}
	if changed == 0 {
		t.Fatal("error model changed nothing")
	}
	// Mean of declared ≈ mean of actual (zero-mean error, slight upward
	// bias from the clamp at sigma=0.5 is negligible).
	if ratio := declared / actual; math.Abs(ratio-1) > 0.02 {
		t.Errorf("declared/actual = %v, want ~1", ratio)
	}
}

func TestWithErrorHugeSigmaClampsToZero(t *testing.T) {
	g := WithError{Gen: NewExp1(16), Sigma: 10}
	rng := sim.NewRNG(4)
	zeros, total := 0, 0
	for i := 0; i < 2000; i++ {
		for _, st := range g.Steps(rng) {
			total++
			if st.DeclaredCost == 0 {
				zeros++
			}
		}
	}
	// The clamp fires when x <= -1, i.e. with probability Φ(-1/σ).
	want := 0.5 * math.Erfc(1.0/10/math.Sqrt2)
	frac := float64(zeros) / float64(total)
	if math.Abs(frac-want) > 0.03 {
		t.Errorf("clamped fraction = %v, want ~%v", frac, want)
	}
}

func TestWithErrorSigmaZeroIsIdentity(t *testing.T) {
	g := WithError{Gen: NewExp1(16), Sigma: 0}
	rng := sim.NewRNG(5)
	for _, st := range g.Steps(rng) {
		if st.DeclaredCost != st.Cost {
			t.Fatal("sigma=0 must not perturb")
		}
	}
}

func TestFixedGenerator(t *testing.T) {
	tpl, err := Pattern1.Instantiate(map[string]model.FileID{"F1": 1, "F2": 2})
	if err != nil {
		t.Fatal(err)
	}
	g := Fixed{Template: tpl}
	a := g.Steps(nil)
	b := g.Steps(nil)
	if len(a) != 4 || len(b) != 4 {
		t.Fatal("fixed generator must replay the template")
	}
	a[0].Cost = 99
	if b[0].Cost == 99 || g.Template[0].Cost == 99 {
		t.Fatal("Steps must return copies")
	}
}

func TestNewExp1PanicsOnTooFewFiles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewExp1(1)
}

func TestExp1SkewedDistribution(t *testing.T) {
	g := NewExp1Skewed(16, 1.0)
	rng := sim.NewRNG(5)
	counts := make(map[model.FileID]int)
	const n = 20000
	for i := 0; i < n; i++ {
		steps := g.Steps(rng)
		counts[steps[0].File]++
		if steps[0].File == steps[1].File {
			t.Fatal("files must be distinct")
		}
	}
	// File 0 must be drawn far more often than file 15 under Zipf(1).
	if counts[0] < 4*counts[15] {
		t.Errorf("skew too weak: f0=%d f15=%d", counts[0], counts[15])
	}
	// Theta=0 degenerates to near-uniform.
	u := NewExp1Skewed(16, 0)
	counts0 := make(map[model.FileID]int)
	for i := 0; i < n; i++ {
		counts0[u.Steps(rng)[0].File]++
	}
	for f, c := range counts0 {
		if c < n/16-400 || c > n/16+400 {
			t.Errorf("theta=0 file %d count %d not ~uniform", f, c)
		}
	}
}

func TestExp1SkewedPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewExp1Skewed(1, 1) },
		func() { NewExp1Skewed(8, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
