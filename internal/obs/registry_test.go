package obs

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"batchsched/internal/sim"
)

func TestRateTotalAndWindow(t *testing.T) {
	r := NewRegistry().Rate("events", "test events", 10*sim.Second)

	// 5 events per second for 20 virtual seconds.
	for sec := 0; sec < 20; sec++ {
		for i := 0; i < 5; i++ {
			r.Add(sim.Time(sec)*sim.Second+sim.Time(i), 1)
		}
	}
	if got := r.Value(); got != 100 {
		t.Fatalf("Value = %d, want 100", got)
	}
	// Query inside the last written slot: the trailing window then covers
	// exactly the 10 most recent filled slots.
	now := 20*sim.Second - 1
	if got := r.RatePerSec(now); math.Abs(got-5) > 0.01 {
		t.Fatalf("RatePerSec = %v, want ~5", got)
	}
	// 15 idle seconds later, the whole window has aged out.
	if got := r.RatePerSec(now + 15*sim.Second); got != 0 {
		t.Fatalf("RatePerSec after idle window = %v, want 0", got)
	}
}

func TestRateBurstWithinWindow(t *testing.T) {
	r := NewRegistry().Rate("burst", "burst", 10*sim.Second)
	r.Add(3*sim.Second, 40)
	// The burst stays in the 10s window: 40 events / 10 s.
	if got := r.RatePerSec(4 * sim.Second); math.Abs(got-4) > 1e-9 {
		t.Fatalf("RatePerSec = %v, want 4", got)
	}
	// Once the slot ages out, the rate drops to zero; the total never does.
	if got := r.RatePerSec(30 * sim.Second); got != 0 {
		t.Fatalf("aged RatePerSec = %v, want 0", got)
	}
	if got := r.Value(); got != 40 {
		t.Fatalf("Value = %d, want 40", got)
	}
	if got := NewRegistry().Counter("plain", "no window"); got.RatePerSec(0) != 0 {
		t.Fatal("a counter without a window reports a rate")
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(3.5)
	if got := g.Value(); got != 10.5 {
		t.Fatalf("Value = %v, want 10.5", got)
	}
	// A callback gauge holds what the last Refresh stored.
	v := 1.0
	f := reg.GaugeFunc("f", "callback", func() float64 { return v })
	if f.Value() != 0 {
		t.Fatal("callback gauge has a value before any Refresh")
	}
	reg.Refresh()
	v = 2
	if f.Value() != 1 {
		t.Fatalf("callback gauge = %v, want the refreshed 1", f.Value())
	}
}

// TestNilInstrumentsAreNoOps: the nil registry hands out nil instruments
// and every method on them is a no-op.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Rate("x", "x", sim.Second)
	g := r.Gauge("y", "y")
	h := r.Histogram("z", "z", []float64{1})
	f := r.GaugeFunc("f", "f", func() float64 { return 1 })
	if c != nil || g != nil || h != nil || f != nil || r.Counter("c", "c") != nil {
		t.Fatal("nil Registry handed out non-nil instruments")
	}
	r.Label("backend", "sim")
	r.Refresh()
	c.Add(0, 1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || c.RatePerSec(0) != 0 || g.Value() != 0 ||
		h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments returned non-zero readings")
	}
	var buf countingWriter
	if err := r.WritePrometheus(&buf, 0); err != nil || buf.n != 0 {
		t.Fatalf("nil Registry wrote %d bytes (err %v), want nothing", buf.n, err)
	}
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestHotPathAllocationFree is the hot-path contract of both backends:
// updating instruments must not allocate, enabled or disabled.
func TestHotPathAllocationFree(t *testing.T) {
	reg := NewRegistry()
	r := reg.Rate("events", "e", 10*sim.Second)
	c := reg.Counter("plain", "p")
	g := reg.Gauge("depth", "d")
	h := reg.Histogram("rt", "r", []float64{1, 10, 100})
	var now sim.Time
	if allocs := testing.AllocsPerRun(1000, func() {
		now += sim.Millisecond
		r.Add(now, 1)
		c.Add(now, 1)
		g.Set(float64(now))
		g.Add(1)
		h.Observe(float64(now) / 1e3)
	}); allocs != 0 {
		t.Fatalf("enabled hot path allocates %.1f per op, want 0", allocs)
	}

	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	if allocs := testing.AllocsPerRun(1000, func() {
		nilC.Add(1, 1)
		nilG.Set(1)
		nilH.Observe(1)
	}); allocs != 0 {
		t.Fatalf("disabled hot path allocates %.1f per op, want 0", allocs)
	}
}

// TestHistogramBucketBoundaries pins the boundary semantics: bucket i counts
// bounds[i-1] < v <= bounds[i], with an implicit overflow bucket above the
// last bound.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{
		0,    // -> bucket 0 (v <= 1)
		1,    // -> bucket 0 (upper bound inclusive)
		1.01, // -> bucket 1
		10,   // -> bucket 1 (upper bound inclusive)
		10.5, // -> bucket 2
		100,  // -> bucket 2
		101,  // -> overflow
		1e9,  // -> overflow
	} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 2}
	if got := h.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if got, want := h.Sum(), 0+1+1.01+10+10.5+100+101+1e9; got != want {
		t.Errorf("Sum = %g, want %g", got, want)
	}
	if hs := reg.histograms(); len(hs) != 1 || hs[0] != h {
		t.Errorf("registry lists %v, want the one histogram", hs)
	}
}

// TestHistogramQuantile checks the interpolated quantile against exact
// order statistics: on uniform data the estimate is within one bucket's
// width, and ranks past the top bound report the top bound.
func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{10, 20, 50, 100, 200, 500, 1000}
	h := NewRegistry().Histogram("rt", "rt", bounds)
	xs := make([]float64, 0, 1000)
	for i := 1; i <= 1000; i++ {
		v := float64(i) / 2 // 0.5 .. 500
		h.Observe(v)
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95} {
		exact := xs[int(q*float64(len(xs)))-1]
		got := h.Quantile(q)
		i := sort.SearchFloat64s(bounds, exact)
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if math.Abs(got-exact) > bounds[i]-lo {
			t.Errorf("q%.2f = %v, exact %v: off by more than its bucket (%v, %v]", q, got, exact, lo, bounds[i])
		}
	}
	if got := h.Quantile(0.5); got != 250 {
		t.Errorf("median of uniform 0.5..500 = %v, want 250 (the bucket interpolates linearly)", got)
	}
	h.Observe(1e6)
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("overflow quantile = %v, want the top bound 1000", got)
	}
	if got := NewRegistry().Histogram("e", "e", bounds).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestDuplicateRegistrationPanics: one producer per instance — registering
// a name and labels twice, or one name as two kinds, panics.
func TestDuplicateRegistrationPanics(t *testing.T) {
	for name, dup := range map[string]func(*Registry){
		"counter":   func(r *Registry) { r.Counter("dup", "second") },
		"as gauge":  func(r *Registry) { r.Gauge("dup", "second") },
		"histogram": func(r *Registry) { r.Histogram("dup", "second", nil) },
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("dup", "first")
			defer func() {
				if recover() == nil {
					t.Fatal("duplicate registration did not panic")
				}
			}()
			dup(r)
		})
	}
}

func TestLabelledInstrumentsCoexist(t *testing.T) {
	reg := NewRegistry()
	g0 := reg.Gauge("queue", "q", "node", "0")
	g1 := reg.Gauge("queue", "q", "node", "1")
	g0.Set(3)
	g1.Set(9)
	if g0.Value() != 3 || g1.Value() != 9 {
		t.Fatal("labelled instances share state")
	}
}
