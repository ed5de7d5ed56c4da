package batchsched

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// faultConfig is the observed fault run of the export goldens: the
// summary golden's fault-cocktail mix of node crashes, stragglers and
// message loss over a shorter window, so the CN's fault-abort and retry
// paths close their spans in the pinned trace.
func faultConfig() Config {
	cfg := obsConfig(120 * Second)
	cfg.ArrivalRate = 0.4
	cfg.RestartDelay = 5 * Second
	cfg.RestartJitter = true
	cfg.Faults = FaultConfig{
		MTBF: 60 * Second, MTTR: 5 * Second,
		StragglerMTBF: 40 * Second, StragglerDuration: 10 * Second, StragglerFactor: 3,
		MsgLoss: 0.02, MsgTimeout: 5 * Second, MsgRetries: 2,
	}
	return cfg
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output deviates from %s (%d bytes vs %d); rerun with -update-golden if the change is intentional",
			path, len(got), len(want))
	}
}

// observedExports runs one GOW replication at seed 1 with the
// observability layer attached and returns its Chrome trace and metrics
// CSV.
func observedExports(t *testing.T, cfg Config) (chrome, csv []byte) {
	t.Helper()
	ob := NewObs()
	if _, err := RunObserved(cfg, "GOW", DefaultParams(), NewExp1Workload(16), 1, ob); err != nil {
		t.Fatal(err)
	}
	var tb, cb bytes.Buffer
	if err := ob.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := ob.WriteMetricsCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), cb.Bytes()
}

// TestMetricsCSVGolden pins the sampled metrics CSV of TestChromeTraceGolden's
// GOW run: every counter, gauge and histogram the control node, the DPNs and
// the machine register, in column order, at every sample tick. Regenerate
// after an intentional instrumentation change with:
//
//	go test -run TestMetricsCSVGolden -update-golden .
func TestMetricsCSVGolden(t *testing.T) {
	_, csv := observedExports(t, obsConfig(60*Second))
	checkGolden(t, "exp1_gow_metrics.golden.csv", csv)
}

// TestFaultRunExportsGolden pins the Chrome trace and metrics CSV of an
// observed fault run: crash aborts, message-timeout retries and straggler
// episodes close execute, lock-wait and CN-job spans on paths an unfaulted
// run never takes. Regenerate after an intentional change with:
//
//	go test -run TestFaultRunExportsGolden -update-golden .
func TestFaultRunExportsGolden(t *testing.T) {
	chrome, csv := observedExports(t, faultConfig())
	if !json.Valid(chrome) {
		t.Fatal("fault-run Chrome trace is not valid JSON")
	}
	checkGolden(t, "fault_gow_trace.golden.json", chrome)
	checkGolden(t, "fault_gow_metrics.golden.csv", csv)
}
