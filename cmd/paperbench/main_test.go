package main

import (
	"math"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name          string
		duration, tol float64
		reps          int
		wantErr       string // "" = accepted
	}{
		{"defaults", 0, 0, 1, ""},
		{"quick-like", 200, 0.05, 3, ""},
		{"negative duration", -5, 0, 1, "-duration"},
		{"NaN duration", math.NaN(), 0, 1, "-duration"},
		{"infinite duration", math.Inf(1), 0, 1, "-duration"},
		{"negative tol", 0, -1, 1, "-tol"},
		{"NaN tol", 0, math.NaN(), 1, "-tol"},
		{"infinite tol", 0, math.Inf(1), 1, "-tol"},
		{"zero reps", 0, 0, 0, "-reps"},
		{"negative reps", 0, 0, -1, "-reps"},
	}
	for _, c := range cases {
		err := validateFlags(c.duration, c.tol, c.reps)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one naming %s", c.name, err, c.wantErr)
		}
	}
}
