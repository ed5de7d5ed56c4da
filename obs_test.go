package batchsched

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from current output")

// obsConfig is a scaled-down Experiment-1 operating point: big enough to
// exercise blocking, delaying and multi-step execution, small enough for the
// golden trace to stay reviewable.
func obsConfig(duration Time) Config {
	cfg := DefaultConfig()
	cfg.ArrivalRate = 0.6
	cfg.NumFiles = 16
	cfg.DD = 1
	cfg.Duration = duration
	return cfg
}

// TestObservedSummaryMatchesRun: attaching the observability layer must not
// perturb the simulation — the summary must stay deeply equal to the plain
// Run's across the experiments' operating regimes (Exp1 blocking workload,
// Exp2 hot-set, Exp3 estimation error, Exp4 faults).
func TestObservedSummaryMatchesRun(t *testing.T) {
	type tc struct {
		name  string
		sched string
		gen   func() Generator
		cfg   Config
	}
	exp1 := func() Generator { return NewExp1Workload(16) }
	exp2 := func() Generator { return NewExp2Workload() }
	exp3 := func() Generator { return WithCostError(NewExp1Workload(16), 1.0) }

	faulty := obsConfig(200 * Second)
	faulty.Faults = FaultConfig{
		MTBF: 60 * Second, MTTR: 5 * Second,
		MsgLoss: 0.02, MsgTimeout: 5 * Second, MsgRetries: 2,
	}

	cases := []tc{
		{"exp1-GOW", "GOW", exp1, obsConfig(200 * Second)},
		{"exp1-LOW", "LOW", exp1, obsConfig(200 * Second)},
		{"exp1-C2PL", "C2PL", exp1, obsConfig(200 * Second)},
		{"exp2-GOW", "GOW", exp2, obsConfig(200 * Second)},
		{"exp3-LOW", "LOW", exp3, obsConfig(200 * Second)},
		{"exp4-C2PL-faults", "C2PL", exp1, faulty},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := Run(c.cfg, c.sched, DefaultParams(), c.gen(), 1)
			if err != nil {
				t.Fatal(err)
			}
			ob := NewObs()
			observed, err := RunObserved(c.cfg, c.sched, DefaultParams(), c.gen(), 1, ob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, observed) {
				t.Errorf("observed summary differs from plain run:\nplain:    %+v\nobserved: %+v", plain, observed)
			}
			if len(ob.Spans()) == 0 {
				t.Error("observer recorded no spans")
			}
		})
	}
}

// TestObservedOutputsDeterministic: two runs with the same seed must export
// byte-identical Chrome traces, metrics CSVs and audit logs.
func TestObservedOutputsDeterministic(t *testing.T) {
	render := func() (trace, csv, audit []byte) {
		ob := NewObs()
		if _, err := RunObserved(obsConfig(200*Second), "GOW", DefaultParams(), NewExp1Workload(16), 1, ob); err != nil {
			t.Fatal(err)
		}
		var tb, cb, ab bytes.Buffer
		if err := ob.WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if err := ob.WriteMetricsCSV(&cb); err != nil {
			t.Fatal(err)
		}
		if err := ob.WriteAuditJSONL(&ab); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), cb.Bytes(), ab.Bytes()
	}
	t1, c1, a1 := render()
	t2, c2, a2 := render()
	if !bytes.Equal(t1, t2) {
		t.Error("Chrome traces differ between identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("metrics CSVs differ between identical runs")
	}
	if !bytes.Equal(a1, a2) {
		t.Error("audit logs differ between identical runs")
	}
	if len(a1) == 0 {
		t.Error("GOW run produced an empty audit log")
	}
}

// TestLOWAuditExports: LOW's audit must serialize even when contention makes
// some E(q)/E(p) estimates deadlocked (+Inf, which JSON cannot encode; the
// recorder maps them to -1). Regression test: this exact point used to make
// WriteAuditJSONL fail with "json: unsupported value: +Inf".
func TestLOWAuditExports(t *testing.T) {
	ob := NewObs()
	if _, err := RunObserved(obsConfig(200*Second), "LOW", DefaultParams(), NewExp1Workload(16), 1, ob); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ob.WriteAuditJSONL(&buf); err != nil {
		t.Fatalf("audit export failed: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("LOW run produced an empty audit log")
	}
}

// TestChromeTraceGolden pins the exported Chrome trace of a small GOW run
// against testdata. Regenerate after an intentional format or
// instrumentation change with:
//
//	go test -run TestChromeTraceGolden -update-golden .
func TestChromeTraceGolden(t *testing.T) {
	ob := NewObs()
	if _, err := RunObserved(obsConfig(60*Second), "GOW", DefaultParams(), NewExp1Workload(16), 1, ob); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ob.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exp1_gow_trace.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace deviates from %s (%d bytes vs %d); rerun with -update-golden if the change is intentional",
			path, buf.Len(), len(want))
	}
}

// TestPhaseBreakdownOrdering: the per-phase decomposition must reproduce the
// paper's qualitative story at the Exp.1 operating point — C2PL transactions
// spend far longer lock-waiting than GOW's or LOW's (Fig. 8/9 is driven by
// that blocking), and NODC, which ignores conflicts, never waits at all.
func TestPhaseBreakdownOrdering(t *testing.T) {
	lockWait := func(sched string) float64 {
		ob := NewObs()
		ob.SetSampleInterval(0) // samples are irrelevant here
		if _, err := RunObserved(obsConfig(400*Second), sched, DefaultParams(), NewExp1Workload(16), 1, ob); err != nil {
			t.Fatal(err)
		}
		for _, ph := range ob.PhaseTotals("txn") {
			if ph.Name == "lock-wait" {
				return ph.Total.Seconds()
			}
		}
		return 0
	}
	c2pl, gow, low, nodc := lockWait("C2PL"), lockWait("GOW"), lockWait("LOW"), lockWait("NODC")
	if nodc != 0 {
		t.Errorf("NODC recorded %g s of lock-wait, want none", nodc)
	}
	if gow <= 0 || low <= 0 {
		t.Errorf("GOW/LOW recorded no lock-wait at a contended point (gow=%g, low=%g)", gow, low)
	}
	if c2pl <= gow || c2pl <= low {
		t.Errorf("C2PL lock-wait (%g s) should dominate GOW (%g s) and LOW (%g s)", c2pl, gow, low)
	}
}

// TestRecordersCompose: the history check, the JSONL trace writer and the
// observability recorder observe one event stream, so attaching all three
// to one run must give the same summary, trace bytes, exports and check
// result as attaching each alone — on a NODC run whose check fails and on
// a GOW fault run whose trace carries fault, retry and abort records.
func TestRecordersCompose(t *testing.T) {
	nodc := obsConfig(300 * Second)
	nodc.ArrivalRate = 1.0
	for _, c := range []struct {
		sched string
		cfg   Config
	}{{"NODC", nodc}, {"GOW", faultConfig()}} {
		t.Run(c.sched, func(t *testing.T) {
			gen := func() Generator { return NewExp1Workload(16) }
			exports := func(ob *Obs) [3]string {
				var tb, cb, ab bytes.Buffer
				if err := ob.WriteChromeTrace(&tb); err != nil {
					t.Fatal(err)
				}
				if err := ob.WriteMetricsCSV(&cb); err != nil {
					t.Fatal(err)
				}
				if err := ob.WriteAuditJSONL(&ab); err != nil {
					t.Fatal(err)
				}
				return [3]string{tb.String(), cb.String(), ab.String()}
			}

			plain, err := Run(c.cfg, c.sched, DefaultParams(), gen(), 1)
			if err != nil {
				t.Fatal(err)
			}
			_, checkErr := RunChecked(c.cfg, c.sched, DefaultParams(), gen(), 1)
			var trace bytes.Buffer
			if _, err := RunTraced(c.cfg, c.sched, DefaultParams(), gen(), 1, &trace); err != nil {
				t.Fatal(err)
			}
			alone := NewObs()
			if _, err := RunObserved(c.cfg, c.sched, DefaultParams(), gen(), 1, alone); err != nil {
				t.Fatal(err)
			}

			var trace2 bytes.Buffer
			both := NewObs()
			sum, err := RunRecorded(c.cfg, c.sched, DefaultParams(), gen(), 1, true, &trace2, both)
			if !reflect.DeepEqual(sum, plain) {
				t.Errorf("summary with every recorder differs from Run's:\n got %+v\nwant %+v", sum, plain)
			}
			if fmt.Sprint(err) != fmt.Sprint(checkErr) {
				t.Errorf("check with every recorder = %v, alone = %v", err, checkErr)
			}
			if (c.sched == "NODC") != errors.Is(checkErr, ErrNotSerializable) {
				t.Errorf("%s check = %v", c.sched, checkErr)
			}
			if trace2.Len() == 0 || !bytes.Equal(trace2.Bytes(), trace.Bytes()) {
				t.Errorf("JSONL trace with every recorder differs from the trace alone (%d vs %d bytes)", trace2.Len(), trace.Len())
			}
			if exports(both) != exports(alone) {
				t.Error("observability exports with every recorder differ from the recorder alone")
			}
		})
	}
}
