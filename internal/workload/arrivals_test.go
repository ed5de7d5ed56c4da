package workload

import (
	"math"
	"testing"

	"batchsched/internal/sim"
)

// The Poisson process must draw exactly the variates the machine's original
// inline arrival loop drew — every closed-run artifact's byte-identity
// hangs on this.
func TestPoissonMatchesInlineExpTime(t *testing.T) {
	a := sim.NewRNG(7).Stream("arrivals")
	b := sim.NewRNG(7).Stream("arrivals")
	p := Poisson{Rate: 0.6}
	var now sim.Time
	for i := 0; i < 1000; i++ {
		want := a.ExpTime(0.6)
		got := p.Next(now, b)
		if got != want {
			t.Fatalf("draw %d: Poisson.Next = %v, inline ExpTime = %v", i, got, want)
		}
		now += got
	}
}

func meanRate(t *testing.T, a Arrivals, seed int64, span sim.Time) float64 {
	t.Helper()
	rng := sim.NewRNG(seed).Stream("arrivals")
	var now sim.Time
	n := 0
	for now < span {
		now += a.Next(now, rng)
		n++
	}
	return float64(n) / span.Seconds()
}

func TestDiurnalMeanRate(t *testing.T) {
	// Over whole periods the sinusoid integrates out: mean rate ~= Base.
	d := NewDiurnal(2.0, 0.8, 100*sim.Second)
	got := meanRate(t, d, 3, 1000*sim.Second)
	if math.Abs(got-2.0) > 0.15 {
		t.Fatalf("diurnal mean rate = %.3f, want ~2.0", got)
	}
}

func TestDiurnalModulates(t *testing.T) {
	// Peak quarter-periods must see materially more arrivals than troughs.
	d := NewDiurnal(2.0, 0.9, 1000*sim.Second)
	rng := sim.NewRNG(11).Stream("arrivals")
	var now sim.Time
	peak, trough := 0, 0
	for now < 10_000*sim.Second {
		now += d.Next(now, rng)
		phase := math.Mod(float64(now)/float64(1000*sim.Second), 1)
		switch {
		case phase > 0.05 && phase < 0.45: // sin > 0 region
			peak++
		case phase > 0.55 && phase < 0.95: // sin < 0 region
			trough++
		}
	}
	if peak < 2*trough {
		t.Fatalf("diurnal modulation too weak: peak=%d trough=%d", peak, trough)
	}
}

func TestBurstMeanRates(t *testing.T) {
	// Long quiet sojourns with short violent bursts: the overall rate must
	// sit between Base and Base*Factor, and bursts must be visible as gap
	// clusters well above the quiet rate.
	b := NewBurst(1.0, 10, 50*sim.Second, 5*sim.Second)
	got := meanRate(t, b, 5, 5000*sim.Second)
	// Expected: (50*1 + 5*10)/55 ~= 1.82 tps.
	if got < 1.3 || got > 2.4 {
		t.Fatalf("burst mean rate = %.3f, want ~1.8", got)
	}
	if meanQuiet := meanRate(t, Poisson{Rate: 1}, 5, 5000*sim.Second); got < meanQuiet*1.2 {
		t.Fatalf("burst rate %.3f not above quiet rate %.3f", got, meanQuiet)
	}
}

func TestTraceCyclesAndValidates(t *testing.T) {
	tr := NewTrace([]sim.Time{sim.Second, 2 * sim.Second, 3 * sim.Second})
	want := []sim.Time{1, 2, 3, 1, 2, 3, 1}
	for i, w := range want {
		if g := tr.Next(0, nil); g != w*sim.Second {
			t.Fatalf("gap %d = %v, want %v", i, g, w*sim.Second)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewTrace accepted a non-positive gap")
		}
	}()
	NewTrace([]sim.Time{0})
}

func TestArrivalsDeterministic(t *testing.T) {
	build := func() []Arrivals {
		return []Arrivals{
			Poisson{Rate: 0.8},
			NewDiurnal(0.8, 0.5, 200*sim.Second),
			NewBurst(0.8, 4, 100*sim.Second, 20*sim.Second),
			NewTrace([]sim.Time{sim.Second, 3 * sim.Second}),
		}
	}
	as, bs := build(), build()
	for i := range as {
		ra := sim.NewRNG(42).Stream("arrivals")
		rb := sim.NewRNG(42).Stream("arrivals")
		var now sim.Time
		for j := 0; j < 500; j++ {
			ga, gb := as[i].Next(now, ra), bs[i].Next(now, rb)
			if ga != gb {
				t.Fatalf("process %d draw %d: %v != %v", i, j, ga, gb)
			}
			now += ga
		}
	}
}

func TestHeavyTailedUnitMeanAndTail(t *testing.T) {
	base := Fixed{Template: NewExp1(16).Steps(sim.NewRNG(1))}
	ht := NewHeavyTailed(base, 1.5)
	rng := sim.NewRNG(9).Stream("workload")
	baseCost := base.Template[0].Cost
	var sum, max float64
	n := 20000
	for i := 0; i < n; i++ {
		steps := ht.Steps(rng)
		m := steps[0].Cost / baseCost
		r1 := steps[1].Cost / base.Template[1].Cost
		rd := steps[0].DeclaredCost / base.Template[0].DeclaredCost
		if math.Abs(r1-m) > 1e-9*m || math.Abs(rd-m) > 1e-9*m {
			t.Fatal("heavy-tail multiplier must scale every step's cost and declared cost alike")
		}
		sum += m
		if m > max {
			max = m
		}
	}
	mean := sum / float64(n)
	if mean < 0.85 || mean > 1.1 {
		t.Fatalf("heavy-tail multiplier mean = %.3f, want ~1 (load-preserving)", mean)
	}
	if max < 5 {
		t.Fatalf("heavy-tail max multiplier = %.2f over %d draws — no tail", max, n)
	}
}

// TestSourceSharedDrawPath: transaction i of a closed batch is the i-th
// draw of the seed's "workload" stream, the stream open runs draw their
// arrivals' steps from.
func TestSourceSharedDrawPath(t *testing.T) {
	gen := NewExp1(16)
	batch := DrawBatch(gen, 21, 50)
	if len(batch) != 50 {
		t.Fatalf("%d transactions, want 50", len(batch))
	}
	rng := sim.NewRNG(21).Stream("workload")
	for i, want := range batch {
		got := gen.Steps(rng)
		if len(got) != len(want) {
			t.Fatalf("txn %d: %d steps vs %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("txn %d step %d: %+v != %+v", i, j, got[j], want[j])
			}
		}
	}
}
