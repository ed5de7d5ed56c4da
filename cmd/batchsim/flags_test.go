package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"batchsched"
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

// TestFlagCombinations: a combination of flags either does what every flag
// says on one run, or is rejected up front (exit 2). The NODC point
// reproduces a serialization cycle, so -check must fail it whichever
// recorders ride along, and the recorders must still write their files.
func TestFlagCombinations(t *testing.T) {
	cfg := batchsched.DefaultConfig()
	cfg.ArrivalRate = 1.0
	cfg.Duration = 300 * batchsched.Second
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	cases := []struct {
		name   string
		flags  modeFlags
		out    outputs
		reject bool
	}{
		{"check", modeFlags{backend: "sim", check: true, reps: 1}, outputs{}, false},
		{"check with metrics-out", modeFlags{backend: "sim", check: true, reps: 1, obsOut: true},
			outputs{metrics: in("m.csv")}, false},
		{"check with trace", modeFlags{backend: "sim", check: true, reps: 1, trace: true},
			outputs{trace: in("t.jsonl")}, false},
		// NODC keeps no decision audit, so -audit is left out here.
		{"check with trace and exports", modeFlags{backend: "sim", check: true, reps: 1, trace: true, obsOut: true},
			outputs{trace: in("t2.jsonl"), chrome: in("c.json"), metrics: in("m2.csv"), report: in("r.html")}, false},
		{"reps with audit", modeFlags{backend: "sim", reps: 3, obsOut: true}, outputs{}, true},
		{"reps with trace", modeFlags{backend: "sim", reps: 3, trace: true}, outputs{}, true},
		{"live with traces and reps", modeFlags{backend: "live", reps: 3, trace: true, obsOut: true}, outputs{}, true},
		{"live with traces", modeFlags{backend: "live", reps: 1, trace: true, obsOut: true}, outputs{}, true},
		{"live with reps", modeFlags{backend: "live", reps: 3}, outputs{}, true},
		{"live with faults", modeFlags{backend: "live", reps: 1, faults: true}, outputs{}, true},
		{"live with check", modeFlags{backend: "live", reps: 1, check: true}, outputs{}, false},
		{"progress with check", modeFlags{backend: "sim", reps: 1, progress: true, check: true}, outputs{}, true},
		{"progress with trace", modeFlags{backend: "sim", reps: 1, progress: true, trace: true}, outputs{}, true},
		{"progress with reps", modeFlags{backend: "sim", reps: 3, progress: true}, outputs{}, false},
		{"compare with check", modeFlags{backend: "sim", reps: 1, compare: true, check: true}, outputs{}, true},
		{"service with trace", modeFlags{backend: "sim", reps: 1, service: true, trace: true, lambda: 1}, outputs{}, true},
		{"service", modeFlags{backend: "sim", reps: 1, service: true, lambda: 0.5}, outputs{}, false},
		{"service with check", modeFlags{backend: "sim", reps: 1, service: true, check: true, lambda: 0.5}, outputs{}, true},
		{"service with compare", modeFlags{backend: "sim", reps: 1, service: true, compare: true, lambda: 0.5}, outputs{}, true},
		{"service with lambda 0", modeFlags{backend: "sim", reps: 1, service: true}, outputs{}, true},
		{"service with lambda NaN", modeFlags{backend: "sim", reps: 1, service: true, lambda: math.NaN()}, outputs{}, true},
		{"service capacity", modeFlags{backend: "sim", reps: 1, service: true, lambda: 0.1, capacity: true}, outputs{}, false},
		{"service capacity on live", modeFlags{backend: "live", reps: 1, service: true, lambda: 0.1, capacity: true}, outputs{}, true},
		{"service capacity with heavytail", modeFlags{backend: "sim", reps: 1, service: true, lambda: 0.1, capacity: true, heavytail: true}, outputs{}, true},
		{"live service with arrival flags", modeFlags{backend: "live", reps: 1, service: true, lambda: 8,
			set: map[string]bool{"lambda": true, "arrival": true, "service-duration": true}}, outputs{}, false},
		{"live with lambda", modeFlags{backend: "live", reps: 1, set: map[string]bool{"lambda": true}}, outputs{}, true},
		{"live with duration and warmup", modeFlags{backend: "live", reps: 1,
			set: map[string]bool{"txns": true, "duration": true, "warmup": true}}, outputs{}, true},
		{"live with epoch", modeFlags{backend: "live", reps: 1, set: map[string]bool{"epoch": true}}, outputs{}, true},
		{"live with its own flags", modeFlags{backend: "live", reps: 1, check: true,
			set: map[string]bool{"backend": true, "sched": true, "txns": true, "pace": true, "rows": true, "check": true, "seed": true}}, outputs{}, false},
		{"sim with live and service flags", modeFlags{backend: "sim", reps: 1,
			set: map[string]bool{"pace": true, "rows": true, "txns": true, "arrival": true, "epoch": true, "service-duration": true}}, outputs{}, true},
		{"sim with txns", modeFlags{backend: "sim", reps: 1, set: map[string]bool{"txns": true}}, outputs{}, true},
		{"sim with epoch", modeFlags{backend: "sim", reps: 1, set: map[string]bool{"epoch": true}}, outputs{}, true},
		{"sim with its own flags", modeFlags{backend: "sim", sched: "LOW", reps: 1, obsOut: true,
			set: map[string]bool{"sched": true, "lambda": true, "duration": true, "warmup": true, "dd": true, "k": true, "mtbf": true,
				"metrics-out": true, "metrics-interval": true}}, outputs{}, false},
		{"sim with mttr alone", modeFlags{backend: "sim", reps: 1, set: map[string]bool{"mttr": true}}, outputs{}, true},
		{"sim with mtbf 0 and mttr", modeFlags{backend: "sim", reps: 1, set: map[string]bool{"mtbf": true, "mttr": true}}, outputs{}, true},
		{"sim with mtbf and mttr", modeFlags{backend: "sim", reps: 1, faults: true, crashes: true,
			set: map[string]bool{"mtbf": true, "mttr": true}}, outputs{}, false},
		{"sim with msgtimeout alone", modeFlags{backend: "sim", reps: 1, set: map[string]bool{"msgtimeout": true}}, outputs{}, true},
		{"sim with msgretries and msgdelay", modeFlags{backend: "sim", reps: 1, faults: true,
			set: map[string]bool{"msgdelay": true, "msgretries": true}}, outputs{}, true},
		{"sim with msgloss, msgtimeout and msgretries", modeFlags{backend: "sim", reps: 1, faults: true, msgLoss: true,
			set: map[string]bool{"msgloss": true, "msgtimeout": true, "msgretries": true}}, outputs{}, false},
		{"sim with metrics-interval alone", modeFlags{backend: "sim", reps: 1, set: map[string]bool{"metrics-interval": true}}, outputs{}, true},
		{"sim with metrics-interval and trace-out", modeFlags{backend: "sim", reps: 1, obsOut: true,
			set: map[string]bool{"trace-out": true, "metrics-interval": true}}, outputs{}, true},
		{"sim with metrics-interval and report", modeFlags{backend: "sim", reps: 1, obsOut: true,
			set: map[string]bool{"report": true, "metrics-interval": true}}, outputs{}, false},
		{"sim GOW with mpl", modeFlags{backend: "sim", sched: "GOW", reps: 1, set: map[string]bool{"mpl": true}}, outputs{}, true},
		{"sim C2PL+M with mpl", modeFlags{backend: "sim", sched: "C2PL+M", reps: 1, set: map[string]bool{"mpl": true}}, outputs{}, false},
		{"live GOW with mpl", modeFlags{backend: "live", sched: "GOW", reps: 1, set: map[string]bool{"mpl": true}}, outputs{}, true},
		{"live C2PL+M with mpl", modeFlags{backend: "live", sched: "C2PL+M", reps: 1, set: map[string]bool{"mpl": true}}, outputs{}, false},
		{"service GOW with mpl window", modeFlags{backend: "sim", sched: "GOW", reps: 1, service: true, lambda: 0.5,
			set: map[string]bool{"mpl": true, "epoch": true, "duration": true}}, outputs{}, false},
		{"sim service with service-duration", modeFlags{backend: "sim", reps: 1, service: true, lambda: 0.5,
			set: map[string]bool{"service-duration": true}}, outputs{}, true},
		{"sim service with pace", modeFlags{backend: "sim", reps: 1, service: true, lambda: 0.5, set: map[string]bool{"pace": true}}, outputs{}, true},
		{"sim service with txns", modeFlags{backend: "sim", reps: 1, service: true, lambda: 0.5, set: map[string]bool{"txns": true}}, outputs{}, true},
		{"sim service with cap-lo", modeFlags{backend: "sim", reps: 1, service: true, lambda: 0.5, set: map[string]bool{"cap-lo": true}}, outputs{}, true},
		{"sim service capacity with cap-lo", modeFlags{backend: "sim", reps: 1, service: true, lambda: 0.1, capacity: true,
			set: map[string]bool{"duration": true, "cap-lo": true, "cap-hi": true, "cap-tol": true}}, outputs{}, false},
		// -capacity picks its own rates: it takes no -lambda, and needs
		// none above 0.
		{"sim service capacity with lambda", modeFlags{backend: "sim", reps: 1, service: true, lambda: 0.1, capacity: true,
			set: map[string]bool{"lambda": true}}, outputs{}, true},
		{"sim service capacity with lambda 0", modeFlags{backend: "sim", reps: 1, service: true, capacity: true}, outputs{}, false},
		{"sim service capacity with numnodes", modeFlags{backend: "sim", reps: 1, service: true, lambda: 0.1, capacity: true,
			set: map[string]bool{"numnodes": true}}, outputs{}, true},
		{"sim service capacity with mtbf", modeFlags{backend: "sim", reps: 1, service: true, lambda: 0.1, capacity: true,
			set: map[string]bool{"mtbf": true}}, outputs{}, true},
		{"live service with duration", modeFlags{backend: "live", reps: 1, service: true, lambda: 8, set: map[string]bool{"duration": true}}, outputs{}, true},
		{"compare with seed and txns", modeFlags{backend: "sim", reps: 1, compare: true,
			set: map[string]bool{"compare": true, "seed": true, "txns": true}}, outputs{}, false},
		{"compare with sched", modeFlags{backend: "sim", reps: 1, compare: true, set: map[string]bool{"compare": true, "sched": true}}, outputs{}, true},
		{"compare with mpl", modeFlags{backend: "sim", reps: 1, compare: true, set: map[string]bool{"compare": true, "mpl": true}}, outputs{}, true},
		{"sim GOW with k", modeFlags{backend: "sim", sched: "GOW", reps: 1, set: map[string]bool{"k": true, "duration": true}}, outputs{}, true},
		{"sim LOW-LB with k", modeFlags{backend: "sim", sched: "LOW-LB", reps: 1, set: map[string]bool{"k": true}}, outputs{}, false},
		{"live LOW with k", modeFlags{backend: "live", sched: "LOW", reps: 1, set: map[string]bool{"k": true}}, outputs{}, false},
		{"live C2PL with k", modeFlags{backend: "live", sched: "C2PL", reps: 1, set: map[string]bool{"k": true}}, outputs{}, true},
		{"service GOW with k", modeFlags{backend: "sim", sched: "GOW", reps: 1, service: true, lambda: 0.5,
			set: map[string]bool{"k": true}}, outputs{}, true},
		{"live with serve-linger alone", modeFlags{backend: "live", reps: 1, set: map[string]bool{"txns": true, "serve-linger": true}}, outputs{}, true},
		{"live with serve and serve-linger", modeFlags{backend: "live", reps: 1,
			set: map[string]bool{"serve": true, "serve-linger": true}}, outputs{}, false},
		{"live service with serve-linger alone", modeFlags{backend: "live", reps: 1, service: true, lambda: 8,
			set: map[string]bool{"serve-linger": true}}, outputs{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateModeFlags(c.flags)
			if (err != nil) != c.reject {
				t.Fatalf("validateModeFlags(%+v) = %v, want rejected %v", c.flags, err, c.reject)
			}
			if c.reject || c.flags.backend != "sim" || !c.flags.check {
				return
			}
			gen := batchsched.NewExp1Workload(16)
			if c.flags.trace || c.flags.obsOut {
				_, err = recordedRun(cfg, "NODC", batchsched.DefaultParams(), gen, 1, true, c.out)
			} else {
				_, err = batchsched.RunChecked(cfg, "NODC", batchsched.DefaultParams(), gen, 1)
			}
			if !errors.Is(err, batchsched.ErrNotSerializable) || !strings.Contains(err.Error(), "cycle through T3 and T7") {
				t.Errorf("checked NODC run: err = %v, want the T3/T7 serialization cycle", err)
			}
			for _, path := range []string{c.out.trace, c.out.chrome, c.out.metrics, c.out.report} {
				if path == "" {
					continue
				}
				if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
					t.Errorf("%s not written: %v", filepath.Base(path), err)
				}
			}
		})
	}
}
