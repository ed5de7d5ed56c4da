package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	"batchsched/internal/metrics"
	"batchsched/internal/obs"
	"batchsched/internal/obs/serve"
	"batchsched/internal/obs/sli"
	"batchsched/internal/sim"
	"batchsched/internal/sweep"
)

// sweepTelemetry is the sweep engine's -serve surface: a metric registry
// over cell progress and worker activity, rendered as Prometheus text on
// /metrics, with the last engine Progress snapshot (and the busy-worker
// count) as JSON on /slo.
type sweepTelemetry struct {
	start time.Time
	reg   *obs.Registry
	srv   *serve.Server

	unitsRate *obs.Counter
	unitsDone *obs.Gauge
	unitsTot  *obs.Gauge
	resumed   *obs.Gauge
	busy      *obs.Gauge
	unitSecs  *obs.Histogram

	mu   sync.Mutex
	last progressSnapshot
}

// progressSnapshot is the /slo payload: the engine's Progress fields plus
// the worker-pool state.
type progressSnapshot struct {
	Done           int     `json:"done"`
	Total          int     `json:"total"`
	Resumed        int     `json:"resumed"`
	UnitsPerSec    float64 `json:"unitsPerSec"`
	ETASeconds     float64 `json:"etaSeconds"`
	VirtualPerWall float64 `json:"virtualPerWall"`
	BusyWorkers    int64   `json:"busyWorkers"`
}

func newSweepTelemetry(totalUnits int) *sweepTelemetry {
	reg := obs.NewRegistry()
	t := &sweepTelemetry{
		start:     time.Now(),
		reg:       reg,
		unitsRate: reg.Rate("sweep_units", "Completed (cell, replication) units.", 30*sim.Second),
		unitsDone: reg.Gauge("sweep_units_done", "Units completed so far, including resumed ones."),
		unitsTot:  reg.Gauge("sweep_units_total_planned", "Units the sweep will run in total."),
		resumed:   reg.Gauge("sweep_units_resumed", "Units skipped by checkpoint resume."),
		busy:      reg.Gauge("sweep_workers_busy", "Worker goroutines currently executing a unit."),
		unitSecs: reg.Histogram("sweep_unit_seconds", "Wall-clock duration of one executed unit in seconds.",
			[]float64{0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10, 30, 60, 300}),
	}
	t.unitsTot.Set(float64(totalUnits))
	return t
}

// now maps wall time since telemetry start onto the registry's clock.
func (t *sweepTelemetry) now() sim.Time {
	return sim.Time(time.Since(t.start) / time.Microsecond)
}

// wrapRun instruments a RunFunc with worker-activity accounting: the
// busy-worker gauge and the per-unit wall-duration histogram. The wrapped
// function runs on the engine's worker goroutines; everything it touches is
// atomic.
func (t *sweepTelemetry) wrapRun(run sweep.RunFunc) sweep.RunFunc {
	return func(c sweep.Cell, seed int64) (metrics.Summary, error) {
		t.busy.Add(1)
		t0 := time.Now()
		sum, err := run(c, seed)
		t.unitSecs.Observe(time.Since(t0).Seconds())
		t.busy.Add(-1)
		return sum, err
	}
}

// onProgress records the engine's progress callback (already serialized by
// the engine's mutex) into gauges and the /slo snapshot.
func (t *sweepTelemetry) onProgress(p sweep.Progress) {
	t.unitsRate.Add(t.now(), 1)
	t.unitsDone.Set(float64(p.Done))
	t.resumed.Set(float64(p.Resumed))
	t.mu.Lock()
	t.last = progressSnapshot{
		Done: p.Done, Total: p.Total, Resumed: p.Resumed,
		UnitsPerSec: round3(p.UnitsPerSec), ETASeconds: round3(p.ETASeconds),
		VirtualPerWall: round3(p.VirtualPerWall),
	}
	t.mu.Unlock()
}

func round3(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1000) / 1000
}

// snapshot returns the /slo payload.
func (t *sweepTelemetry) snapshot() progressSnapshot {
	t.mu.Lock()
	s := t.last
	t.mu.Unlock()
	s.BusyWorkers = int64(t.busy.Value())
	return s
}

// serveOn starts the HTTP endpoint and prints the scrape URL.
func (t *sweepTelemetry) serveOn(addr string) error {
	t.srv = serve.New()
	t.srv.AddMetrics(func(w http.ResponseWriter) error { return t.reg.WritePrometheus(w, t.now()) })
	t.srv.SetSLO(func() any { return t.snapshot() })
	bound, err := t.srv.Start(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: telemetry on http://%s (/metrics /healthz /slo /debug/pprof)\n", bound)
	return nil
}

func (t *sweepTelemetry) close() {
	if t.srv != nil {
		t.srv.Close()
	}
}

// writeSLILedger evaluates every aggregated cell against the SLO spec and
// writes the sweep's sli.jsonl: one stable-schema line per cell
// (replication means as the measures), no timestamps, so two runs of the
// same sweep produce byte-identical ledgers.
func writeSLILedger(path, specPath, sweepName string, aggs []sweep.Agg) error {
	spec := sli.Default()
	if specPath != "" {
		var err error
		if spec, err = sli.Load(specPath); err != nil {
			return err
		}
	}
	entries := make([]sli.Entry, 0, len(aggs))
	for _, a := range aggs {
		m := sli.Measures{
			Scheduler:     a.Cell.Scheduler,
			Load:          a.Cell.Load,
			Lambda:        a.Cell.Lambda,
			TPS:           a.TPS.Mean,
			MeanRTSeconds: a.MeanRTSeconds.Mean,
			P95RTSeconds:  a.P95RTSeconds.Mean,
			Completions:   a.Completions.Mean,
			Restarts:      a.Restarts.Mean,
		}
		if a.Arrivals != nil && a.Sheds != nil {
			// Service-mode cells carry the open-stream counters so the
			// shed-rate objective has teeth in the ledger.
			m.Arrivals, m.Sheds = a.Arrivals.Mean, a.Sheds.Mean
		}
		e := sli.NewEntry("sweep", spec, m)
		e.Sweep = sweepName
		e.CellKey = a.Cell.Key()
		e.Reps = a.Reps
		entries = append(entries, e)
	}
	return sli.WriteLedger(path, entries)
}
