package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// The parent spawns children by re-executing its own binary, which under
// `go test` is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	// Under -race every child would otherwise wait a second at exit.
	if err := os.Setenv("GORACE", "atexit_sleep_ms=0 "+os.Getenv("GORACE")); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// tinyScale shrinks every workload so the whole suite runs in seconds.
const tinyScale = "0.02"

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) (endToEnd, perLayer []specMetric) {
	t.Helper()
	var sp struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	return sp.EndToEnd, sp.PerLayer
}

// TestSuite runs every workload at a tiny scale through both passes and
// checks that the outputs verify, that the traced pass reproduced the
// untraced outputs, and that every metric BENCHMARK.json names is reported
// with its unit.
func TestSuite(t *testing.T) {
	endToEnd, perLayer := readSpec(t)
	for _, m := range perLayer {
		// A layer a workload never enters reads 0 on every run, and a time
		// that never varies is indistinguishable from a constant.
		if slices.Contains([]string{"s", "ms", "us", "ns"}, m.Unit) {
			t.Errorf("per-layer metric %s is a time (%s)", m.Name, m.Unit)
		}
	}
	path := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seconds", "0", "-scale", tinyScale, "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	var res resultFile
	if err := readJSON(path, &res); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		o := res.Workloads[w.name]
		if o == nil {
			t.Fatalf("%s: no result", w.name)
		}
		if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: correct %v, failed %d of %d: %v", w.name, o.Correct, o.Failed, o.Attempted, o.Problems)
		}
		if len(o.Digests) != 1 {
			t.Errorf("%s: traced and untraced reps disagree: digests %v", w.name, o.Digests)
		}
		for _, m := range append(endToEnd, perLayer...) {
			if s, ok := o.Metrics[m.Name]; !ok || s.Unit != m.Unit {
				t.Errorf("%s: metric %s missing or not in %s: %+v", w.name, m.Name, m.Unit, s)
			}
		}
		for _, m := range endToEnd {
			if o.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, o.Metrics[m.Name].Value)
			}
		}
	}
}

// TestResultLine checks the one-line result of a single-workload pass.
func TestResultLine(t *testing.T) {
	endToEnd, perLayer := readSpec(t)
	for trace, want := range map[string][]specMetric{"0": endToEnd, "1": perLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", "live-batch", "-seed", "2", "-seconds", "0", "-scale", tinyScale, "-trace", trace}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: bench exited %d\n%s%s", trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", trace, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("trace %s: %+v", trace, line)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s missing or not in %s", trace, m.Name, m.Unit)
			}
		}
	}
}

// TestAttributeProfile profiles simulator runs long enough to collect
// samples and checks that the simulator's layers receive most of them.
func TestAttributeProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		runSims(scanConfig(secs(500, 1)), scanGen, scanRuns, 1, modeBare, nil)
	}
	pprof.StopCPUProfile()
	samples, err := attributeProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The race detector's own frames have no repository caller, so runtime
	// is left out of the comparison.
	var rest int64
	for l, v := range samples {
		if !slices.Contains(profileLayers, l) {
			t.Errorf("sample charged to unknown layer %q", l)
		}
		if l != "sim" && l != "machine" && l != "runtime" {
			rest += v
		}
	}
	if sim := samples["sim"] + samples["machine"]; sim <= rest {
		t.Errorf("sim+machine hold %d ns, other repository layers %d: %v", sim, rest, samples)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
