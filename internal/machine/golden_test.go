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
)

// TestBatchScanTraceGolden pins the fast-forward engine's batch-scan runs
// (batchScanCases: GOW at DD 16, failure-free, with stragglers and with the
// fault cocktail): each run's summary and the SHA-256 and length of its
// JSONL execution trace. The differential against the stepped engine cannot
// see a change both engines share, such as how the machine books its
// cohort deliveries; this file can. On a mismatch the failure prints the
// file's new content; replace the file with it only for an intended
// behaviour change.
func TestBatchScanTraceGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tc := range batchScanCases() {
		sum, tr := runBatchScan(t, tc.cfg, false)
		js, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(tr)
		fmt.Fprintf(&got, "# %s\ntrace sha256 %s lines %d bytes %d\n%s\n",
			tc.name, hex.EncodeToString(h[:]), bytes.Count(tr, []byte{'\n'}), len(tr), js)
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
