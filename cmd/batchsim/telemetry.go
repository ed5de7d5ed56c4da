package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"batchsched"
	"batchsched/internal/obs"
	"batchsched/internal/obs/serve"
)

// runLiveTelemetry executes the live batch with the telemetry stack up:
// the observability layer on the backend and the HTTP scrape endpoint at
// serveAddr for the duration of the run, plus linger afterwards.
func runLiveTelemetry(lcfg batchsched.LiveConfig, schedName string, params batchsched.Params, batch [][]batchsched.Step,
	serveAddr string, lingerFor time.Duration, check bool) (batchsched.Summary, error) {
	b, err := batchsched.NewLiveBackend(lcfg, schedName, params)
	if err != nil {
		return batchsched.Summary{}, err
	}
	ob := batchsched.NewObs()
	b.SetObs(ob)
	srv, err := serveLive(serveAddr, b, ob)
	if err != nil {
		return batchsched.Summary{}, err
	}
	defer srv.Close()
	sum, err := batchsched.RunLiveTelemetry(b, schedName, batch, check)
	linger(lingerFor)
	return sum, err
}

// serveLive starts the -serve endpoint of live run b, which ob observes.
// Close the server when the run is done.
func serveLive(addr string, b *batchsched.LiveBackend, ob *obs.Observer) (*serve.Server, error) {
	srv := liveServer(b, ob)
	addr, err := srv.Start(addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "batchsim: telemetry on http://%s (/metrics /healthz /slo /debug/pprof)\n", addr)
	return srv, nil
}

// liveServer is the endpoint serveLive mounts: /metrics renders ob's
// registry on b's clock, /slo snapshots b.
func liveServer(b *batchsched.LiveBackend, ob *obs.Observer) *serve.Server {
	srv := serve.New()
	srv.AddMetrics(func(w http.ResponseWriter) error { return ob.Metrics().WritePrometheus(w, b.Now()) })
	srv.SetSLO(func() any { return b.Snapshot() })
	return srv
}

// linger keeps the -serve endpoint up for d after the run completes, for
// external scrapers (-serve-linger).
func linger(d time.Duration) {
	if d > 0 {
		fmt.Fprintf(os.Stderr, "batchsim: endpoint lingering %v for scrapers\n", d)
		time.Sleep(d)
	}
}
