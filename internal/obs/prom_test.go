package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"batchsched/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// deterministicRegistry builds a fixed registry in a fixed state, with the
// instrument shapes a live run registers: a labelled backend, a counter with
// a rate window, a histogram, set and callback gauges, labelled instances.
func deterministicRegistry() *Registry {
	r := NewRegistry()
	r.Label("backend", "live")
	commits := r.Rate("commits", "Committed transactions.", 10*sim.Second)
	rt := r.Histogram("response_time_ms", "Transaction response time in milliseconds.", []float64{100, 1000, 10000})
	active := r.Gauge("active_txns", "Admitted and uncommitted transactions.")
	r.GaugeFunc("obs_clock_clamps", "Monotone clock-regression clamps.", func() float64 { return 2 })
	q0 := r.Gauge("dpn_queue", "Cohorts resident at the node.", "node", "0")
	q1 := r.Gauge("dpn_queue", "Cohorts resident at the node.", "node", "1")

	for i := 0; i < 30; i++ {
		commits.Add(sim.Time(i)*sim.Second/3, 1)
	}
	for i := 1; i <= 100; i++ {
		rt.Observe(float64(i) * 100) // 0.1s .. 10s
	}
	active.Set(4)
	q0.Set(2)
	q1.Set(5)
	r.Refresh()
	return r
}

// TestWritePrometheusGolden pins the exact exposition bytes for a
// deterministic instrument state. Regenerate with:
//
//	go test ./internal/obs -run Golden -update
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := deterministicRegistry().WritePrometheus(&buf, 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// Rendering twice must be byte-identical (deterministic family order).
	var again bytes.Buffer
	if err := deterministicRegistry().WritePrometheus(&again, 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of the same state differ")
	}
}

func TestWritePrometheusValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := deterministicRegistry().WritePrometheus(&buf, 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheus(&buf); err != nil {
		t.Fatalf("own exposition rejected: %v", err)
	}
}

func TestValidatePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"no samples":       "# HELP a b\n# TYPE a gauge\n",
		"untyped sample":   "orphan 1\n",
		"bad type":         "# TYPE a frobnitz\na 1\n",
		"bad value":        "# TYPE a gauge\na one\n",
		"malformed TYPE":   "# TYPE a\na 1\n",
		"bad name":         "# TYPE 9a gauge\n9a 1\n",
		"malformed sample": "# TYPE a gauge\na{unclosed 1\n",
	}
	for name, text := range cases {
		if err := ValidatePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

func TestValidatePrometheusAcceptsSuffixedFamilies(t *testing.T) {
	text := "# HELP rt seconds\n# TYPE rt summary\n" +
		"rt{quantile=\"0.5\"} 1.5\nrt_sum 30\nrt_count 20\n"
	if err := ValidatePrometheus(strings.NewReader(text)); err != nil {
		t.Fatalf("summary family rejected: %v", err)
	}
}
