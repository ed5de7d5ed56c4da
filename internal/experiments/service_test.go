package experiments

import (
	"testing"

	"batchsched/internal/admit"
	"batchsched/internal/obs/sli"
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
	m := ServiceMeasures(p)
	if m.Arrivals <= 0 || m.Completions <= 0 {
		t.Fatalf("implausible measures: %+v", m)
	}
	if m.TPS <= 0 || m.P95RTSeconds <= 0 {
		t.Errorf("missing rates: %+v", m)
	}

	// A generous spec must find a sustained rate at least at the floor; the
	// result is always a rate that actually ran and passed.
	spec := sli.ServiceDefault()
	res, err := ServiceCapacity(p, spec, 1, 0.05, 0.3, 0.1)
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
	if _, err := ServiceCapacity(q, spec, 1, 0.05, 0.3, 0.1); err == nil {
		t.Error("ServiceCapacity accepted a closed point")
	}
}
