package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// TestBatchScanTraceGolden pins the fast-forward engine's batch-scan runs
// (batchScanCases: GOW at DD 16, failure-free, with stragglers and with the
// fault cocktail): each run's summary and the SHA-256 and length of its
// JSONL execution trace and, from a second run with the obs layer
// attached, of its Chrome trace, its metrics CSV and its completion log
// (completionLog). The differential against the stepped engine cannot see
// a change both engines share, such as how the machine books its cohort
// deliveries or lets fully declustered nodes share one ring; this file
// can, down to the per-node cohort spans and dpn_queue and dpn_busy_ms
// gauges. On a mismatch the failure prints the file's new content; replace
// the file with it only for an intended behaviour change.
func TestBatchScanTraceGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tc := range batchScanCases() {
		sum, tr := runBatchScan(t, tc.cfg, false)
		js, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(tr)
		fmt.Fprintf(&got, "# %s\ntrace sha256 %s lines %d bytes %d\n",
			tc.name, hex.EncodeToString(h[:]), bytes.Count(tr, []byte{'\n'}), len(tr))

		m, err := New(tc.cfg, sched.MustNew("GOW", sched.DefaultParams()), workload.NewBatchScan(16, 32), sim.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		done := completionLog(m)
		ob := obs.New()
		m.SetObs(ob)
		m.Run()
		var chrome, csv bytes.Buffer
		if err := ob.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := ob.WriteMetricsCSV(&csv); err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			name string
			b    []byte
		}{{"chrome trace", chrome.Bytes()}, {"metrics csv", csv.Bytes()}, {"completions", done.Bytes()}} {
			h := sha256.Sum256(f.b)
			fmt.Fprintf(&got, "%s sha256 %s bytes %d\n", f.name, hex.EncodeToString(h[:]), len(f.b))
		}
		fmt.Fprintf(&got, "%s\n", js)
	}
	path := filepath.Join("testdata", "batchscan_trace.golden.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("batch-scan runs deviate from %s; new content:\n%s", path, got.Bytes())
	}
}

// completionLog records the node and virtual time of every cohort
// completion on m, in the order the nodes report them: at full
// declustering this is the completion order of nodes in lockstep.
func completionLog(m *Machine) *bytes.Buffer {
	var done bytes.Buffer
	for _, d := range m.dpns {
		d, complete := d, d.complete
		d.complete = func(c *cohort) {
			fmt.Fprintf(&done, "%d@%v\n", d.id, m.eng.Now())
			complete(c)
		}
	}
	return &done
}
