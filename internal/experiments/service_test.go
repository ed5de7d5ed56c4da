package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"batchsched/internal/admit"
	"batchsched/internal/sim"
)

func TestArrivalProcess(t *testing.T) {
	for _, name := range []string{"", "poisson", "diurnal", "burst"} {
		if _, err := ArrivalProcess(name, 0.5); err != nil {
			t.Errorf("ArrivalProcess(%q): %v", name, err)
		}
	}
	if _, err := ArrivalProcess("poisson", 0); err == nil {
		t.Error("ArrivalProcess accepted lambda = 0")
	}
	if _, err := ArrivalProcess("trace", 0.5); err == nil {
		t.Error("ArrivalProcess accepted an unknown name")
	}
}

func TestServiceMeasuresAndCapacity(t *testing.T) {
	pol := admit.DefaultPolicy()
	pol.MPL = 4
	p := Point{
		Scheduler: "GOW",
		Lambda:    0.15,
		NumFiles:  16,
		DD:        1,
		Load:      Exp1,
		Seed:      1,
		Reps:      1,
		Duration:  300 * sim.Second,
		Service:   &pol,
	}
	m := serviceMeasures(p)
	if m.Arrivals <= 0 || m.Completions <= 0 {
		t.Fatalf("implausible measures: %+v", m)
	}
	if m.TPS <= 0 || m.P95RTSeconds <= 0 {
		t.Errorf("missing rates: %+v", m)
	}

	// The service SLO must find a sustained rate at least at the floor; the
	// result is always a rate that actually ran and passed.
	res, err := ServiceCapacity(p, 0.05, 0.3, 0.1)
	if err != nil {
		t.Fatalf("ServiceCapacity: %v", err)
	}
	if !res.Passed {
		t.Fatalf("no sustained rate found: %+v", res)
	}
	if res.Lambda < 0.05 || res.Lambda > 0.3 {
		t.Errorf("solved lambda %.3f outside bracket", res.Lambda)
	}
	if len(res.Trials) == 0 {
		t.Error("no trials recorded")
	}

	q := p
	q.Service = nil
	if _, err := ServiceCapacity(q, 0.05, 0.3, 0.1); err == nil {
		t.Error("ServiceCapacity accepted a closed point")
	}
}

// TestServiceCapacityRejectsUnknownArrival: an unknown arrival process is
// an error before any trial runs, not a panic inside the first one.
func TestServiceCapacityRejectsUnknownArrival(t *testing.T) {
	pol := admit.DefaultPolicy()
	p := Point{Scheduler: "GOW", NumFiles: 16, DD: 1, Load: Exp1, Seed: 1, Reps: 1,
		Duration: 10 * sim.Second, Service: &pol, Arrival: "nosuch"}
	before := SimCounts()
	_, err := ServiceCapacity(p, 0.05, 0.3, 0.1)
	if err == nil || !strings.Contains(err.Error(), `unknown arrival process "nosuch"`) {
		t.Fatalf("err = %v, want the unknown arrival process", err)
	}
	if d := simsSince(before); d != (Sims{}) {
		t.Errorf("a trial ran before the check: %+v", d)
	}
}

// TestServiceSLO: the service SLO passes a healthy open-stream run and
// fails one that sheds more than 2% of its arrivals, one whose p95 is above
// 70 s and one that restarts more than twice per completion.
func TestServiceSLO(t *testing.T) {
	good := Measures{Scheduler: "GOW", Load: "exp1", TPS: 0.3, P95RTSeconds: 50,
		Completions: 100, Restarts: 10, Arrivals: 100, Sheds: 1}
	if !good.meetsSLO() {
		t.Fatalf("healthy run failed: %+v", good)
	}
	shedding := good
	shedding.Sheds = 5
	slow := good
	slow.P95RTSeconds = 71
	churning := good
	churning.Restarts = 201
	for name, m := range map[string]Measures{"a 5% shed rate": shedding, "a 71 s p95": slow, "2.01 restarts per commit": churning} {
		if m.meetsSLO() {
			t.Errorf("%s passed the service SLO", name)
		}
	}
}

// syntheticTrial models a saturating system with knee at capacity: below it
// the p95 is flat and nothing sheds, above it the p95 blows up and sheds
// grow with the excess.
func syntheticTrial(capacity float64, calls *[]float64) func(float64) (Measures, error) {
	return func(lambda float64) (Measures, error) {
		*calls = append(*calls, lambda)
		m := Measures{Scheduler: "GOW", Load: "synthetic", Lambda: lambda, Arrivals: 1000}
		if lambda <= capacity {
			m.TPS = lambda
			m.P95RTSeconds = 20
		} else {
			m.TPS = capacity
			m.P95RTSeconds = 500
			m.Sheds = 1000 * (lambda - capacity) / lambda
		}
		m.Completions = m.TPS * 100
		return m, nil
	}
}

func TestSustainedTPSBisection(t *testing.T) {
	var calls []float64
	res, err := sustainedTPS(syntheticTrial(3.0, &calls), 0.5, 8, 0.05)
	if err != nil {
		t.Fatalf("sustainedTPS: %v", err)
	}
	if !res.Passed {
		t.Fatal("bisection found no passing rate")
	}
	if res.Lambda > 3.0 || res.Lambda < 3.0-0.05 {
		t.Fatalf("lambda %g, want within tol below capacity 3.0", res.Lambda)
	}
	if res.SustainedTPS != res.Measures.TPS {
		t.Fatalf("SustainedTPS %g != Measures.TPS %g", res.SustainedTPS, res.Measures.TPS)
	}
	// Every reported trial was actually run, and the result is one of them.
	if len(res.Trials) != len(calls) {
		t.Fatalf("%d trials recorded, %d run", len(res.Trials), len(calls))
	}
	found := false
	for _, tr := range res.Trials {
		if tr.Lambda == res.Lambda {
			if !tr.Pass {
				t.Fatalf("result lambda %g recorded as failing", res.Lambda)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("result lambda %g was never probed (untested midpoint)", res.Lambda)
	}
}

// TestSustainedTPSTolBelowFloatResolution: a tolerance no float spacing
// can reach must still end the bisection, at a rate that was run and
// passed, once the bracket ends are adjacent floats.
func TestSustainedTPSTolBelowFloatResolution(t *testing.T) {
	var calls []float64
	res, err := sustainedTPS(syntheticTrial(3.0, &calls), 0.5, 8, 1e-300)
	if err != nil {
		t.Fatalf("sustainedTPS: %v", err)
	}
	if !res.Passed || res.Lambda > 3.0 || 3.0-res.Lambda > 1e-12 {
		t.Fatalf("lambda %g (passed %v), want the capacity 3.0 to float resolution", res.Lambda, res.Passed)
	}
	if len(calls) > 100 {
		t.Fatalf("%d probes: the bisection did not stop at float resolution", len(calls))
	}
	verified := false
	for _, tr := range res.Trials {
		verified = verified || (tr.Lambda == res.Lambda && tr.Pass)
	}
	if !verified {
		t.Fatalf("result lambda %g was never probed and passed", res.Lambda)
	}
}

func TestSustainedTPSWholeBracketPasses(t *testing.T) {
	var calls []float64
	res, err := sustainedTPS(syntheticTrial(100, &calls), 1, 4, 0.1)
	if err != nil {
		t.Fatalf("sustainedTPS: %v", err)
	}
	if !res.Passed || res.Lambda != 4 {
		t.Fatalf("whole-bracket pass: %+v", res)
	}
	if len(calls) != 2 { // lo and hi only; no bisection needed
		t.Fatalf("probe count %d, want 2", len(calls))
	}
}

func TestSustainedTPSFloorFails(t *testing.T) {
	var calls []float64
	res, err := sustainedTPS(syntheticTrial(0.1, &calls), 1, 4, 0.1)
	if err != nil {
		t.Fatalf("sustainedTPS: %v", err)
	}
	if res.Passed || res.Lambda != 0 || res.SustainedTPS != 0 {
		t.Fatalf("floor-fail result: %+v", res)
	}
	if len(calls) != 1 {
		t.Fatalf("probe count %d, want 1 (stop at failing floor)", len(calls))
	}
}

func TestSustainedTPSRejectsBadBracket(t *testing.T) {
	trial := func(float64) (Measures, error) { return Measures{}, nil }
	for _, c := range [][3]float64{{0, 1, 0.1}, {2, 1, 0.1}, {1, 2, 0}} {
		if _, err := sustainedTPS(trial, c[0], c[1], c[2]); err == nil {
			t.Errorf("bracket %v accepted", c)
		}
	}
}

func TestSustainedTPSTrialError(t *testing.T) {
	boom := func(float64) (Measures, error) { return Measures{}, fmt.Errorf("backend exploded") }
	if _, err := sustainedTPS(boom, 1, 2, 0.1); err == nil {
		t.Fatal("trial error swallowed")
	}
}

func TestShedRateGatesCapacity(t *testing.T) {
	// A trial whose p95 stays healthy because shedding absorbs the excess:
	// without the shed-rate bound the bisection would run away to hi.
	trial := func(lambda float64) (Measures, error) {
		m := Measures{Scheduler: "GOW", Load: "synthetic", Lambda: lambda,
			Arrivals: 1000, TPS: math.Min(lambda, 2), P95RTSeconds: 20, Completions: 100}
		if lambda > 2 {
			m.Sheds = 1000 * (lambda - 2) / lambda
		}
		return m, nil
	}
	res, err := sustainedTPS(trial, 0.5, 8, 0.05)
	if err != nil {
		t.Fatalf("sustainedTPS: %v", err)
	}
	if res.Lambda > 2.1 {
		t.Fatalf("shed-rate bound did not gate: lambda %g", res.Lambda)
	}
}
