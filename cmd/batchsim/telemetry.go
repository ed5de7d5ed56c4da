package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"batchsched"
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
// streaming instruments on the backend's hot paths, the HTTP scrape
// endpoint for the duration of the run (plus -serve-linger), and one
// appended SLI ledger line.
func runLiveTelemetry(lcfg batchsched.LiveConfig, schedName string, params batchsched.Params, batch [][]batchsched.Step, opt telemetryOpts) (batchsched.Summary, error) {
	b, err := batchsched.NewLiveBackend(lcfg, schedName, params)
	if err != nil {
		return batchsched.Summary{}, err
	}
	set := batchsched.NewStreamSet()
	b.SetStream(set)
	b.SetObs(batchsched.NewObs())

	if opt.serveAddr != "" {
		srv := serve.New()
		srv.AddMetrics(func(w http.ResponseWriter) error { return set.WritePrometheus(w, b.Now()) })
		srv.SetSLO(func() any { return b.Snapshot() })
		addr, serr := srv.Start(opt.serveAddr)
		if serr != nil {
			return batchsched.Summary{}, serr
		}
		fmt.Fprintf(os.Stderr, "batchsim: telemetry on http://%s (/metrics /healthz /slo /debug/pprof)\n", addr)
		defer srv.Close()
	}

	res, err := batchsched.RunLiveTelemetry(b, schedName, batch, opt.check)
	if err == nil && schedName != "NODC" && schedName != "OPT" && res.Violations != 0 {
		err = fmt.Errorf("live %s run observed %d lock-guard violations", schedName, res.Violations)
	}

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

	if opt.serveAddr != "" && opt.linger > 0 {
		fmt.Fprintf(os.Stderr, "batchsim: endpoint lingering %v for scrapers\n", opt.linger)
		time.Sleep(opt.linger)
	}
	return res.Summary, err
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
