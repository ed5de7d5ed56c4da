package main

import (
	"math"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name    string
		flags   runFlags
		wantErr string // "" = accepted
	}{
		{"defaults", runFlags{reps: 1, exp: "all"}, ""},
		{"quick-like", runFlags{duration: 200, tol: 0.05, reps: 3, exp: "all"}, ""},
		{"negative duration", runFlags{duration: -5, reps: 1}, "-duration"},
		{"NaN duration", runFlags{duration: math.NaN(), reps: 1}, "-duration"},
		{"infinite duration", runFlags{duration: math.Inf(1), reps: 1}, "-duration"},
		{"negative tol", runFlags{tol: -1, reps: 1}, "-tol"},
		{"NaN tol", runFlags{tol: math.NaN(), reps: 1}, "-tol"},
		{"infinite tol", runFlags{tol: math.Inf(1), reps: 1}, "-tol"},
		{"zero reps", runFlags{reps: 0}, "-reps"},
		{"negative reps", runFlags{reps: -1}, "-reps"},
		{"artifacts with exp and chart", runFlags{reps: 1, exp: "table2, fig8", set: set("exp", "chart", "tol", "quick")}, ""},
		{"unknown artifact after a known one", runFlags{reps: 1, exp: "fig8,nosuch", set: set("exp", "quick")}, `unknown artifact "nosuch"`},
		{"empty exp", runFlags{reps: 1, exp: "", set: set("exp")}, "unknown artifact"},
		{"ablations with quick and reps", runFlags{reps: 2, ablations: true, set: set("ablations", "quick", "reps")}, ""},
		{"ablations with exp", runFlags{reps: 1, ablations: true, set: set("ablations", "exp")}, "-exp"},
		{"ablations with chart", runFlags{reps: 1, ablations: true, set: set("ablations", "chart")}, "-chart"},
		{"ablations with grid", runFlags{reps: 1, ablations: true, grid: "exp1", set: set("ablations", "grid")}, "-grid"},
		{"grid with quick, reps and seed", runFlags{reps: 2, grid: "exp1", set: set("grid", "quick", "reps", "seed")}, ""},
		{"grid with duration", runFlags{duration: 60, reps: 2, grid: "exp4", set: set("grid", "duration", "reps")}, ""},
		{"grid with exp", runFlags{reps: 1, grid: "exp1", set: set("grid", "exp")}, "-exp"},
		{"grid with chart", runFlags{reps: 1, grid: "exp1", set: set("grid", "chart")}, "-chart"},
		{"grid with tol", runFlags{tol: 0.05, reps: 1, grid: "exp1", set: set("grid", "tol")}, "-tol"},
		{"grid with ablations", runFlags{reps: 1, grid: "exp1", ablations: true, set: set("grid", "ablations")}, "-ablations"},
		{"unknown grid", runFlags{reps: 1, grid: "exp9", set: set("grid")}, "unknown grid"},
		{"empty grid", runFlags{reps: 1, set: set("grid")}, "unknown grid"},
	}
	for _, c := range cases {
		err := validateFlags(c.flags)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one naming %s", c.name, err, c.wantErr)
		}
	}
}
