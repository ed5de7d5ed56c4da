package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"batchsched/internal/obs"
)

func testServer() (*Server, *obs.Registry) {
	reg := obs.NewRegistry()
	g := reg.Gauge("test_gauge", "A test gauge.")
	g.Set(42)
	s := New()
	s.AddMetrics(func(w http.ResponseWriter) error { return reg.WritePrometheus(w, 0) })
	return s, reg
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := testServer()
	resp, body := get(t, s.Handler(), "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(body, "test_gauge 42") {
		t.Fatalf("body missing gauge sample:\n%s", body)
	}
	if err := obs.ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("endpoint output is not valid exposition format: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	s, _ := testServer()
	resp, body := get(t, s.Handler(), "/healthz")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthy probe: status %d body %q", resp.StatusCode, body)
	}
}

func TestSLOEndpoint(t *testing.T) {
	s, _ := testServer()
	// With no source, /slo renders JSON null.
	resp, body := get(t, s.Handler(), "/slo")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "null" {
		t.Fatalf("empty /slo: status %d body %q", resp.StatusCode, body)
	}
	s.SetSLO(func() any { return map[string]int{"commits": 7} })
	resp, body = get(t, s.Handler(), "/slo")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "\"commits\": 7") {
		t.Fatalf("/slo: status %d body %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

func TestPprofMounted(t *testing.T) {
	s, _ := testServer()
	resp, body := get(t, s.Handler(), "/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
	resp, _ = get(t, s.Handler(), "/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}
}

func TestStartAndClose(t *testing.T) {
	s, _ := testServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

func TestMultipleMetricsSourcesConcatenate(t *testing.T) {
	reg2 := obs.NewRegistry()
	reg2.Gauge("second_gauge", "Another.").Set(1)
	s, _ := testServer()
	s.AddMetrics(func(w http.ResponseWriter) error { return reg2.WritePrometheus(w, 0) })
	_, body := get(t, s.Handler(), "/metrics")
	if !strings.Contains(body, "test_gauge 42") || !strings.Contains(body, "second_gauge 1") {
		t.Fatalf("concatenated body missing a source:\n%s", body)
	}
	if err := obs.ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("concatenated output invalid: %v", err)
	}
}
