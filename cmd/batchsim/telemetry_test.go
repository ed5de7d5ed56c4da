package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"batchsched"
	"batchsched/internal/experiments"
	"batchsched/internal/obs"
)

func TestValidateTelemetryFlags(t *testing.T) {
	cases := []struct {
		name         string
		serve, backd string
		compare      bool
		wantErr      bool
	}{
		{name: "no telemetry", backd: "sim"},
		{name: "serve on live", serve: ":0", backd: "live"},
		{name: "serve on sim rejected", serve: ":0", backd: "sim", wantErr: true},
		{name: "serve with compare rejected", serve: ":0", backd: "live", compare: true, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateTelemetryFlags(c.serve, c.backd, c.compare)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateTelemetryFlags(%q, %q, %v) = %v, wantErr %v",
					c.serve, c.backd, c.compare, err, c.wantErr)
			}
		})
	}
}

// TestServeLiveMetrics scrapes, over HTTP, the endpoint serveLive mounts for
// a closed live batch and for a metrics-only live service run: /metrics must
// be well-formed Prometheus text carrying the shared metric names with the
// backend as a label, and no series may carry a live_ prefix.
func TestServeLiveMetrics(t *testing.T) {
	lcfg := batchsched.DefaultLiveConfig()
	lcfg.NumNodes = 4
	lcfg.RowsPerObject = 32
	lcfg.RestartDelay = 2 * time.Millisecond
	lcfg.RestartJitter = true
	gen := batchsched.NewExp1Workload(lcfg.NumFiles)
	scrape := func(t *testing.T, b *batchsched.LiveBackend, ob *obs.Observer, want ...string) {
		t.Helper()
		ts := httptest.NewServer(liveServer(b, ob).Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidatePrometheus(bytes.NewReader(body)); err != nil {
			t.Fatalf("malformed exposition: %v\n%s", err, body)
		}
		lines := strings.Split(string(body), "\n")
		for _, series := range append(want, `commits_total{backend="live"}`) {
			if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, series) }) {
				t.Errorf("no %s series in:\n%s", series, body)
			}
		}
		for _, l := range lines {
			if strings.HasPrefix(l, "live_") {
				t.Errorf("series with the live_ prefix: %s", l)
			}
		}
	}

	t.Run("batch", func(t *testing.T) {
		b, err := batchsched.NewLiveBackend(lcfg, "C2PL", batchsched.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ob := batchsched.NewObs()
		b.SetObs(ob)
		if _, err := batchsched.RunLiveTelemetry(b, "C2PL", batchsched.GenerateBatch(gen, 1, 24), false); err != nil {
			t.Fatal(err)
		}
		scrape(t, b, ob)
	})

	t.Run("service", func(t *testing.T) {
		pol := batchsched.DefaultAdmitPolicy()
		pol.Epoch = 50 * batchsched.Millisecond
		cfg := lcfg
		cfg.Service = &pol
		cfg.ServiceDuration = 300 * time.Millisecond
		b, err := batchsched.NewLiveBackend(cfg, "GOW", batchsched.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ob := obs.NewMetricsOnly()
		b.SetObs(ob)
		arr, err := experiments.ArrivalProcess("poisson", 40)
		if err != nil {
			t.Fatal(err)
		}
		if sum := b.RunService(gen, arr, 1); sum.Completions == 0 {
			t.Fatalf("service run committed nothing (err %v)", b.Err())
		}
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
		scrape(t, b, ob, `admit_queue_depth{backend="live"}`)
	})
}
