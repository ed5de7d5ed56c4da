package model

import (
	"strings"
	"testing"
)

func TestParsePatternExperiment1(t *testing.T) {
	p, err := ParsePattern("Xr(F1:1) -> Xr(F2:5) -> w(F1:0.2) -> w(F2:1)")
	if err != nil {
		t.Fatal(err)
	}
	steps := p.Steps()
	if len(steps) != 4 {
		t.Fatalf("len = %d, want 4", len(steps))
	}
	want := []PatternStep{
		{Sym: "F1", Write: false, LockMode: X, Cost: 1},
		{Sym: "F2", Write: false, LockMode: X, Cost: 5},
		{Sym: "F1", Write: true, LockMode: X, Cost: 0.2},
		{Sym: "F2", Write: true, LockMode: X, Cost: 1},
	}
	for i, w := range want {
		if steps[i] != w {
			t.Errorf("step %d = %+v, want %+v", i, steps[i], w)
		}
	}
}

func TestParsePatternExperiment2(t *testing.T) {
	p, err := ParsePattern("r(B:5)->w(F1:1)->w(F2:1)")
	if err != nil {
		t.Fatal(err)
	}
	steps := p.Steps()
	if steps[0].LockMode != S || steps[0].Write {
		t.Errorf("plain r must take S and not write: %+v", steps[0])
	}
	if !steps[1].Write || steps[1].LockMode != X {
		t.Errorf("w must take X and write: %+v", steps[1])
	}
}

func TestPatternRoundTrip(t *testing.T) {
	srcs := []string{
		"Xr(F1:1)->Xr(F2:5)->w(F1:0.2)->w(F2:1)",
		"r(B:5)->w(F1:1)->w(F2:1)",
		"r(A:1)->r(B:3)->w(A:1)",
		"w(Z:0.5)",
	}
	for _, src := range srcs {
		p := MustParsePattern(src)
		if got := p.String(); got != src {
			t.Errorf("round trip %q -> %q", src, got)
		}
		p2 := MustParsePattern(p.String())
		if p2.String() != p.String() {
			t.Errorf("second round trip changed: %q", p2.String())
		}
	}
}

func TestParsePatternErrors(t *testing.T) {
	bad := []string{
		"",
		"q(A:1)",
		"r(A)",
		"rA:1)",
		"r(:1)",
		"r(A:x)",
		"r(A:-1)",
		"r(A:1)->",
		"X",
		"Xw(", // malformed parens
	}
	for _, src := range bad {
		if _, err := ParsePattern(src); err == nil {
			t.Errorf("ParsePattern(%q) succeeded, want error", src)
		}
	}
}

func TestParsePatternErrorMentionsStep(t *testing.T) {
	_, err := ParsePattern("r(A:1)->bogus->w(B:1)")
	if err == nil || !strings.Contains(err.Error(), "step 2") {
		t.Errorf("error should name the offending step, got %v", err)
	}
}

func TestInstantiate(t *testing.T) {
	p := MustParsePattern("Xr(F1:1)->w(F2:2)")
	steps, err := p.Instantiate(map[string]FileID{"F1": 10, "F2": 11})
	if err != nil {
		t.Fatal(err)
	}
	if steps[0].File != 10 || steps[1].File != 11 {
		t.Errorf("binding not applied: %+v", steps)
	}
	if steps[0].DeclaredCost != steps[0].Cost {
		t.Error("declared cost must default to actual cost")
	}
	if _, err := p.Instantiate(map[string]FileID{"F1": 10}); err == nil {
		t.Error("missing binding must error")
	}
}

func TestMustParsePatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParsePattern("nonsense")
}

func TestWhitespaceTolerance(t *testing.T) {
	p := MustParsePattern("  Xr( F1 : 1 )  ->  w( F2 : 0.25 ) ")
	steps := p.Steps()
	if steps[0].Sym != "F1" || steps[1].Cost != 0.25 {
		t.Errorf("whitespace handling wrong: %+v", steps)
	}
}
