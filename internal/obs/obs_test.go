package obs

import (
	"reflect"
	"testing"

	"batchsched/internal/sim"
)

// TestNilObserverIsSafe: every method of the disabled (nil) observer must be
// callable — the instrumented hot paths rely on this instead of branching.
func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports Enabled")
	}
	if id := o.Begin("x", "txn", 1, -1, -1, 0, 0); id != 0 {
		t.Fatalf("nil Begin returned %d, want 0", id)
	}
	o.End(1, 0)
	o.SetSampleInterval(sim.Second)
	o.Finish(0)
	if o.Spans() != nil || o.Samples() != nil {
		t.Fatal("nil observer returned non-nil recordings")
	}
	if o.Audit() != nil {
		t.Fatal("nil observer returned a non-nil audit")
	}
	o.Tick(func() sim.Time { return 0 })
	if o.Metrics() != nil || o.SampleHeader() != nil {
		t.Fatal("nil observer has a registry")
	}
	var a *Audit
	a.SetClock(nil)
	a.Record(AuditEntry{})
	if a.Entries() != nil {
		t.Fatal("nil audit holds entries")
	}
}

func TestSpanLifecycle(t *testing.T) {
	o := New()
	root := o.Begin("txn", "txn", 7, -1, -1, 0, 10*sim.Millisecond)
	child := o.Begin("execute", "txn", 7, -1, 0, root, 12*sim.Millisecond)
	o.End(child, 20*sim.Millisecond)
	// Double-End must not move the end time.
	o.End(child, 99*sim.Millisecond)
	o.Finish(50 * sim.Millisecond)

	spans := o.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].End != 50*sim.Millisecond {
		t.Errorf("Finish left root open: End=%v", spans[0].End)
	}
	if spans[1].End != 20*sim.Millisecond {
		t.Errorf("double End moved the end time: %v", spans[1].End)
	}
	if spans[1].Parent != root {
		t.Errorf("child parent = %v, want %v", spans[1].Parent, root)
	}
	if d := spans[1].Duration(); d != 8*sim.Millisecond {
		t.Errorf("child duration = %v, want 8ms", d)
	}
}

func TestPhaseTotals(t *testing.T) {
	o := New()
	a := o.Begin("execute", "txn", 1, -1, 0, 0, 0)
	o.End(a, 10*sim.Millisecond)
	b := o.Begin("lock-wait", "txn", 1, -1, -1, 0, 10*sim.Millisecond)
	o.End(b, 15*sim.Millisecond)
	c := o.Begin("execute", "txn", 2, -1, 0, 0, 0)
	o.End(c, 30*sim.Millisecond)
	io := o.Begin("cohort", "io", 1, 3, 0, 0, 0)
	o.End(io, 5*sim.Millisecond)

	got := o.PhaseTotals("txn")
	want := []PhaseTotal{
		{Name: "execute", Total: 40 * sim.Millisecond, Count: 2},
		{Name: "lock-wait", Total: 5 * sim.Millisecond, Count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PhaseTotals(txn) = %+v, want %+v", got, want)
	}
	if all := o.PhaseTotals(""); len(all) != 3 {
		t.Errorf("PhaseTotals(\"\") has %d phases, want 3", len(all))
	}
}

// TestSampling drives the sampler through a real engine and checks the rows
// line up with the header and tick times.
func TestSampling(t *testing.T) {
	eng := sim.NewEngine()
	o := New()
	o.SetSampleInterval(10 * sim.Millisecond)
	depth := 0.0
	o.Metrics().GaugeFunc("depth", "depth", func() float64 { return depth })
	c := o.Metrics().Counter("events", "events") // counters come first

	// Model activity between ticks.
	eng.Schedule(4*sim.Millisecond, func(now sim.Time) { c.Add(now, 1); depth = 2 })
	eng.Schedule(17*sim.Millisecond, func(now sim.Time) { c.Add(now, 1); depth = 5 })

	o.StartSampling(eng)
	eng.RunUntil(25 * sim.Millisecond)
	o.Finish(25 * sim.Millisecond)

	if got, want := o.SampleHeader(), []string{"t_ms", "events", "depth"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("header = %v, want %v", got, want)
	}
	want := [][]float64{
		{0, 0, 0},  // tick at t=0, before any activity
		{10, 1, 2}, // after the t=4 event
		{20, 2, 5}, // after the t=17 event
		{25, 2, 5}, // Finish's final sample at the horizon
	}
	if got := o.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
}

// TestClockClamps: monotone clamping of wall-clock regression is counted,
// once per clamped span end and once per clamped sample.
func TestClockClamps(t *testing.T) {
	o := New()
	o.SetSampleInterval(sim.Second)

	id := o.Begin("txn", "txn", 1, -1, -1, 0, 10*sim.Millisecond)
	o.End(id, 5*sim.Millisecond) // wall clock ran backwards: clamp to start
	spanEnds, samples := o.ClockClamps()
	if spanEnds != 1 || samples != 0 {
		t.Fatalf("after clamped End: ClockClamps = %d, %d; want 1, 0", spanEnds, samples)
	}
	if got := o.Spans()[0]; got.End != got.Start {
		t.Fatalf("clamped span End = %v, want Start %v", got.End, got.Start)
	}

	o.Tick(at(2 * sim.Second))
	o.Tick(at(1 * sim.Second)) // not due: no sample, no clamp
	o.Finish(1 * sim.Second)   // regressed final sample: clamp to lastTick
	spanEnds, samples = o.ClockClamps()
	if spanEnds != 1 || samples != 1 {
		t.Fatalf("after clamped sample: ClockClamps = %d, %d; want 1, 1", spanEnds, samples)
	}

	// Forward motion never counts.
	id2 := o.Begin("txn", "txn", 2, -1, -1, 0, 3*sim.Second)
	o.End(id2, 4*sim.Second)
	o.Tick(at(5 * sim.Second))
	if se, sa := o.ClockClamps(); se != 1 || sa != 1 {
		t.Fatalf("forward motion counted as clamps: %d, %d", se, sa)
	}

	var nilO *Observer
	if se, sa := nilO.ClockClamps(); se != 0 || sa != 0 {
		t.Fatal("nil observer reports clamps")
	}
}

// TestTickSamplesWhenDue: Tick, the wall-clock hosts' sampling hook,
// samples on its first call and then once per interval.
func TestTickSamplesWhenDue(t *testing.T) {
	o := New()
	o.SetSampleInterval(10 * sim.Millisecond)
	for _, t := range []sim.Time{3, 5, 12, 13, 25} {
		o.Tick(at(t * sim.Millisecond))
	}
	var ts []float64
	for _, row := range o.Samples() {
		ts = append(ts, row[0])
	}
	if want := []float64{3, 13, 25}; !reflect.DeepEqual(ts, want) {
		t.Fatalf("sample times = %v, want %v", ts, want)
	}
}

// TestMetricsOnlyKeepsNoHistory: a metrics-only observer records no spans,
// hands out no audit and keeps no sampled rows, but its callback gauges
// still refresh.
func TestMetricsOnlyKeepsNoHistory(t *testing.T) {
	o := NewMetricsOnly()
	o.SetSampleInterval(sim.Millisecond)
	g := o.Metrics().GaugeFunc("g", "g", func() float64 { return 7 })
	if id := o.Begin("txn", "txn", 1, -1, -1, 0, 0); id != 0 {
		t.Fatalf("Begin = %d, want no span", id)
	}
	if o.Audit() != nil {
		t.Fatal("metrics-only observer hands out an audit")
	}
	for t := sim.Time(0); t < 10; t++ {
		o.Tick(at(t * sim.Millisecond))
	}
	o.Finish(20 * sim.Millisecond)
	if len(o.Spans()) != 0 || len(o.Samples()) != 0 {
		t.Fatalf("kept %d spans and %d rows, want none", len(o.Spans()), len(o.Samples()))
	}
	if g.Value() != 7 {
		t.Fatalf("callback gauge = %v, want 7", g.Value())
	}
}

// at is a clock stopped at t.
func at(t sim.Time) func() sim.Time { return func() sim.Time { return t } }
