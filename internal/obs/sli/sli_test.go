package sli

import (
	"os"
	"path/filepath"
	"testing"
)

func f(v float64) *float64 { return &v }

func TestEvaluate(t *testing.T) {
	spec := Spec{Name: "test", Objectives: []Objective{
		{Name: "rt", MaxP95RTSeconds: f(70)},
		{Name: "tput", MinTPS: f(0.5)},
		{Name: "low-only", Scheduler: "LOW", MaxAbortRate: f(1)},
	}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	m := Measures{Scheduler: "GOW", Load: "exp1", TPS: 0.8, P95RTSeconds: 30, Completions: 100, Restarts: 250}
	pass, checks := spec.Evaluate(m)
	// low-only does not match GOW, so the high abort rate is not checked.
	if !pass {
		t.Fatalf("pass = false, checks %+v", checks)
	}
	if len(checks) != 2 {
		t.Fatalf("got %d checks, want 2: %+v", len(checks), checks)
	}

	m.Scheduler = "LOW"
	pass, checks = spec.Evaluate(m)
	if pass {
		t.Fatal("abort rate 2.5 passed a ceiling of 1")
	}
	var found bool
	for _, c := range checks {
		if c.Metric == "abort_rate" {
			found = true
			if c.OK || c.Value != 2.5 || c.Bound != 1 {
				t.Fatalf("abort_rate check = %+v", c)
			}
		}
	}
	if !found {
		t.Fatal("no abort_rate check emitted for LOW")
	}

	// Min-kind bound failing.
	m.TPS = 0.1
	if pass, _ := spec.Evaluate(Measures{Scheduler: "GOW", TPS: 0.1, P95RTSeconds: 10}); pass {
		t.Fatal("TPS 0.1 passed a floor of 0.5")
	}
}

func TestEvaluateVacuouslyTrue(t *testing.T) {
	spec := Spec{Name: "none", Objectives: []Objective{
		{Name: "other", Scheduler: "C2PL", MaxP95RTSeconds: f(1)},
	}}
	pass, checks := spec.Evaluate(Measures{Scheduler: "LOW", P95RTSeconds: 99})
	if !pass || len(checks) != 0 {
		t.Fatalf("unmatched measures: pass=%v checks=%v", pass, checks)
	}
}

// TestDefaultSpec: the built-in service SLO validates, passes a healthy
// open-stream run and fails one that sheds more than 2% of its arrivals.
func TestDefaultSpec(t *testing.T) {
	spec := ServiceDefault()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	good := Measures{Scheduler: "GOW", Load: "exp1", TPS: 0.3, P95RTSeconds: 50,
		Completions: 100, Restarts: 10, Arrivals: 100, Sheds: 1}
	if pass, checks := spec.Evaluate(good); !pass || len(checks) != 3 {
		t.Fatalf("healthy run: pass=%v checks=%+v", pass, checks)
	}
	shedding := good
	shedding.Sheds = 5
	if pass, _ := spec.Evaluate(shedding); pass {
		t.Fatal("a 5% shed rate passed the service default")
	}
	slow := good
	slow.P95RTSeconds = 71
	if pass, _ := spec.Evaluate(slow); pass {
		t.Fatal("a p95 above 70 s passed the service default")
	}
}

func TestSpecValidateRejects(t *testing.T) {
	if err := (Spec{Name: "empty"}).Validate(); err == nil {
		t.Fatal("empty spec validated")
	}
	if err := (Spec{Name: "x", Objectives: []Objective{{Name: ""}}}).Validate(); err == nil {
		t.Fatal("unnamed objective validated")
	}
	if err := (Spec{Name: "x", Objectives: []Objective{{Name: "hollow"}}}).Validate(); err == nil {
		t.Fatal("boundless objective validated")
	}
}

func TestSpecLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slo.json")
	body := `{"name": "custom", "objectives": [{"name": "rt", "maxP95RtSeconds": 60}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "custom" || len(spec.Objectives) != 1 || *spec.Objectives[0].MaxP95RTSeconds != 60 {
		t.Fatalf("loaded spec = %+v", spec)
	}
	// Unknown fields are rejected.
	if err := os.WriteFile(path, []byte(`{"name": "x", "objectves": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("unknown field accepted")
	}
}
