package main

import (
	"math"
	"testing"
)

func TestValidateRunFlags(t *testing.T) {
	cases := []struct {
		name       string
		wl         string
		numFiles   int
		heavytail  float64
		txns, reps int
		wantErr    bool
	}{
		{"defaults", "exp1", 16, 0, 64, 1, false},
		{"exp1 two files", "exp1", 2, 0, 64, 1, false},
		{"exp1 one file rejected", "exp1", 1, 0, 64, 1, true},
		{"exp1 no files rejected", "exp1", 0, 0, 64, 1, true},
		{"exp2 ignores numfiles", "exp2", 1, 0, 64, 1, false},
		{"heavytail 1.5", "exp1", 16, 1.5, 64, 1, false},
		{"heavytail 0.5 rejected", "exp1", 16, 0.5, 64, 1, true},
		{"heavytail 1 rejected", "exp1", 16, 1, 64, 1, true},
		{"heavytail negative rejected", "exp1", 16, -2, 64, 1, true},
		{"heavytail NaN rejected", "exp1", 16, math.NaN(), 64, 1, true},
		{"txns negative rejected", "exp1", 16, 0, -1, 1, true},
		{"txns zero rejected", "exp1", 16, 0, 0, 1, true},
		{"reps zero rejected", "exp1", 16, 0, 64, 0, true},
		{"reps negative rejected", "exp1", 16, 0, 64, -1, true},
		{"reps three", "exp1", 16, 0, 64, 3, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateRunFlags(c.wl, c.numFiles, c.heavytail, c.txns, c.reps)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateRunFlags(%q, %d, %g, %d, %d) = %v, wantErr %v",
					c.wl, c.numFiles, c.heavytail, c.txns, c.reps, err, c.wantErr)
			}
		})
	}
}
