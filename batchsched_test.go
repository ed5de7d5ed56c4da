package batchsched

import (
	"strings"
	"testing"
)

func TestFacadeRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrivalRate = 0.4
	cfg.Duration = 150_000 * Millisecond
	sum, err := Run(cfg, "LOW", DefaultParams(), NewExp1Workload(16), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completions == 0 {
		t.Fatal("no completions")
	}
	if _, err := Run(cfg, "nonsense", DefaultParams(), NewExp1Workload(16), 1); err == nil {
		t.Error("unknown scheduler must error")
	}
	bad := cfg
	bad.NumNodes = 0
	if _, err := Run(bad, "LOW", DefaultParams(), NewExp1Workload(16), 1); err == nil {
		t.Error("invalid config must error")
	}
}

// TestFacadeRejectsZeroQuantum: an object time below DD microseconds leaves
// no whole microsecond for the 1/DD-object round-robin quantum, and Run
// must say so rather than start the run. One microsecond per node is the
// smallest machine that runs.
func TestFacadeRejectsZeroQuantum(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumNodes, cfg.DD = 16, 16
	cfg.ObjTime = Millisecond / 100
	_, err := Run(cfg, "GOW", DefaultParams(), NewExp1Workload(16), 1)
	if err == nil || !strings.Contains(err.Error(), "ObjTime") {
		t.Fatalf("ObjTime 10µs at DD 16: err = %v, want an ObjTime error", err)
	}
	cfg.ObjTime = 16
	cfg.Duration = Second
	if _, err := Run(cfg, "GOW", DefaultParams(), NewExp1Workload(16), 1); err != nil {
		t.Fatalf("ObjTime 16µs at DD 16: %v", err)
	}
}

func TestFacadeRunChecked(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrivalRate = 0.8
	cfg.Duration = 200_000 * Millisecond
	if _, err := RunChecked(cfg, "GOW", DefaultParams(), NewExp1Workload(8), 2); err != nil {
		t.Errorf("GOW must be serializable: %v", err)
	}
	if _, err := RunChecked(cfg, "NODC", DefaultParams(), NewExp1Workload(8), 2); err == nil {
		t.Error("NODC under contention should fail the serializability check")
	}
}

func TestFacadeSchedulersList(t *testing.T) {
	s := Schedulers()
	if len(s) != 9 || s[0] != "NODC" || s[7] != "2PL" || s[8] != "LOW-LB" {
		t.Errorf("Schedulers = %v", s)
	}
	s[0] = "mutated"
	if Schedulers()[0] != "NODC" {
		t.Error("Schedulers must return a copy")
	}
}

func TestFacadeFixedWorkload(t *testing.T) {
	gen, err := NewFixedWorkload("Xr(F1:1)->w(F1:0.2)", map[string]FileID{"F1": 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ArrivalRate = 0.1
	cfg.Duration = 100_000 * Millisecond
	sum, err := Run(cfg, "ASL", DefaultParams(), gen, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completions == 0 {
		t.Fatal("fixed workload produced nothing")
	}
	if _, err := NewFixedWorkload("bogus", nil); err == nil {
		t.Error("bad pattern must error")
	}
	if _, err := NewFixedWorkload("w(A:1)", nil); err == nil {
		t.Error("missing binding must error")
	}
}

func TestFacadeArtifacts(t *testing.T) {
	ids := ArtifactIDs()
	if len(ids) != 12 {
		t.Fatalf("ArtifactIDs = %v, want the paper's 10 artifacts + exp4 + phases", ids)
	}
	out, err := RegenerateArtifact("table5", Options{Duration: 60_000 * Millisecond, SolverTol: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "GOW") || !strings.Contains(out, "LOW") {
		t.Errorf("table5 output missing schedulers:\n%s", out)
	}
	if _, err := RegenerateArtifact("fig99", Options{}); err == nil {
		t.Error("unknown artifact must error")
	}
}

func TestFacadeWithCostError(t *testing.T) {
	gen := WithCostError(NewExp1Workload(16), 2.0)
	cfg := DefaultConfig()
	cfg.ArrivalRate = 0.3
	cfg.Duration = 100_000 * Millisecond
	if _, err := Run(cfg, "GOW", DefaultParams(), gen, 1); err != nil {
		t.Fatal(err)
	}
}
