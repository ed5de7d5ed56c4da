package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"batchsched"
	"batchsched/internal/obs"
	"batchsched/internal/obs/serve"
	"batchsched/internal/obs/sli"
)

// telemetryOpts carries the telemetry flags into the live run.
type telemetryOpts struct {
	serveAddr string
	linger    time.Duration
	ledger    string
	specPath  string
	check     bool
	wl        string
	seed      int64
}

// runLiveTelemetry executes the live batch with the telemetry stack up:
// the observability layer on the backend, the HTTP scrape endpoint for the
// duration of the run (plus -serve-linger), and one appended SLI ledger
// line.
func runLiveTelemetry(lcfg batchsched.LiveConfig, schedName string, params batchsched.Params, batch [][]batchsched.Step, opt telemetryOpts) (batchsched.Summary, error) {
	b, err := batchsched.NewLiveBackend(lcfg, schedName, params)
	if err != nil {
		return batchsched.Summary{}, err
	}
	ob := batchsched.NewObs()
	b.SetObs(ob)

	if opt.serveAddr != "" {
		srv, err := serveLive(opt.serveAddr, b, ob)
		if err != nil {
			return batchsched.Summary{}, err
		}
		defer srv.Close()
	}

	res, err := batchsched.RunLiveTelemetry(b, schedName, batch, opt.check)

	if opt.ledger != "" && err == nil {
		spec, lerr := loadSpec(opt.specPath)
		if lerr != nil {
			return res.Summary, lerr
		}
		m := sli.FromSummary(schedName, opt.wl, 0, res.Summary, res.Violations, int(res.ClockClamps))
		e := sli.NewEntry("live", spec, m)
		e.Seed = opt.seed
		e.Time = time.Now().UTC().Format(time.RFC3339)
		if lerr := sli.Append(opt.ledger, e); lerr != nil {
			return res.Summary, lerr
		}
		verdict := "PASS"
		if !e.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(os.Stderr, "batchsim: SLO %q %s for %s; ledger line appended to %s\n",
			spec.Name, verdict, schedName, opt.ledger)
	}

	if opt.serveAddr != "" {
		linger(opt.linger)
	}
	return res.Summary, err
}

// serveLive starts the -serve endpoint of live run b, which ob observes:
// /metrics renders ob's registry on b's clock, /slo snapshots b. Close the
// server when the run is done.
func serveLive(addr string, b *batchsched.LiveBackend, ob *obs.Observer) (*serve.Server, error) {
	srv := serve.New()
	srv.AddMetrics(func(w http.ResponseWriter) error { return ob.Metrics().WritePrometheus(w, b.Now()) })
	srv.SetSLO(func() any { return b.Snapshot() })
	addr, err := srv.Start(addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "batchsim: telemetry on http://%s (/metrics /healthz /slo /debug/pprof)\n", addr)
	return srv, nil
}

// linger keeps the -serve endpoint up for d after the run completes, for
// external scrapers (-serve-linger).
func linger(d time.Duration) {
	if d > 0 {
		fmt.Fprintf(os.Stderr, "batchsim: endpoint lingering %v for scrapers\n", d)
		time.Sleep(d)
	}
}

// appendSimLedger appends one "sim"-source SLI ledger line for a
// virtual-clock run (guard violations and clock clamps are structurally
// zero there).
func appendSimLedger(path, specPath, schedName, wl string, lambda float64, seed int64, sum batchsched.Summary) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	m := sli.FromSummary(schedName, wl, lambda, sum, 0, 0)
	e := sli.NewEntry("sim", spec, m)
	e.Seed = seed
	e.Time = time.Now().UTC().Format(time.RFC3339)
	return sli.Append(path, e)
}

// loadSpec resolves the SLO spec: the built-in default, or -slo-spec's file.
func loadSpec(path string) (sli.Spec, error) {
	if path == "" {
		return sli.Default(), nil
	}
	return sli.Load(path)
}
