// Package batchsched is a simulation library for concurrency-control
// scheduling of batch transactions on Shared-Nothing parallel database
// machines, reproducing Ohmori, Kitsuregawa and Tanaka, "Scheduling Batch
// Transactions on Shared-Nothing Parallel Database Machines: Effects of
// Concurrency and Parallelism" (ICDE 1991).
//
// It provides:
//
//   - a discrete-event model of a Shared-Nothing machine: one control node
//     with a FCFS CPU and NumNodes data-processing nodes serving
//     file-scanning cohorts round-robin, with declustered data placement;
//   - the paper's seven schedulers — NODC, ASL, C2PL, C2PL+M, OPT, and the
//     WTPG-based GOW and LOW — plus two extensions: traditional strict 2PL
//     and the load-balancing LOW-LB;
//   - the paper's workloads (Experiments 1-3) and an estimation-error
//     model;
//   - a harness that regenerates every table and figure of the paper's
//     evaluation (see RegenerateArtifact and cmd/paperbench).
//
// Quickstart:
//
//	cfg := batchsched.DefaultConfig()
//	cfg.ArrivalRate = 0.6
//	sum, err := batchsched.Run(cfg, "LOW", batchsched.DefaultParams(),
//	    batchsched.NewExp1Workload(16), 1)
//	fmt.Println(sum.MeanRT, sum.TPS)
package batchsched

import (
	"errors"
	"fmt"
	"io"

	"batchsched/internal/admit"
	"batchsched/internal/engine/live"
	"batchsched/internal/experiments"
	"batchsched/internal/fault"
	"batchsched/internal/history"
	"batchsched/internal/machine"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/trace"
	"batchsched/internal/workload"
)

// Re-exported core types. See the internal packages' documentation for
// field-level detail.
type (
	// Config is the machine and measurement configuration (paper Table 1).
	Config = machine.Config
	// Params is the scheduler cost/policy configuration (paper Table 1).
	Params = sched.Params
	// Summary is a run's digested metrics.
	Summary = metrics.Summary
	// Generator produces the steps of successive transactions.
	Generator = machine.Generator
	// Time is virtual time in microseconds (1000 per paper "clock").
	Time = sim.Time
	// Step is one file-scanning operation of a batch.
	Step = model.Step
	// FileID identifies a file (the locking granule).
	FileID = model.FileID
	// Mode is a lock mode (S or X).
	Mode = model.Mode
	// Options scales a paper-artifact regeneration.
	Options = experiments.Options
	// Txn is a batch transaction.
	Txn = model.Txn
	// FaultConfig carries the fault-injection knobs (Config.Faults); the
	// zero value is the paper's failure-free machine.
	FaultConfig = fault.Config
	// Obs is the observability recorder (see RunObserved and internal/obs):
	// spans, the metric registry and its time-series, and the scheduler
	// decision audit, with Chrome-trace / CSV / HTML / Prometheus exporters.
	Obs = obs.Observer
)

// Lock modes and time units.
const (
	S           = model.S
	X           = model.X
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultConfig returns the paper's Table-1 machine parameters.
func DefaultConfig() Config { return machine.DefaultConfig() }

// DefaultParams returns the paper's Table-1 scheduler parameters (K = 2).
func DefaultParams() Params { return sched.DefaultParams() }

// Schedulers lists the scheduler names accepted by Run: the paper's lineup
// NODC, ASL, GOW, LOW, C2PL, C2PL+M, OPT, plus the traditional strict-2PL
// baseline "2PL" (an extension; see DESIGN.md).
func Schedulers() []string { return append([]string(nil), sched.Names...) }

// Run simulates one configuration with the named scheduler and workload
// generator, returning the metrics summary. Each call is deterministic in
// the seed.
func Run(cfg Config, scheduler string, params Params, gen Generator, seed int64) (Summary, error) {
	return RunRecorded(cfg, scheduler, params, gen, seed, false, nil, nil)
}

// newMachine builds the simulator for one run. Every simulator entry point
// of this package assembles its run here.
func newMachine(cfg Config, scheduler string, params Params, gen Generator, seed int64) (*machine.Machine, error) {
	s, err := sched.New(scheduler, params)
	if err != nil {
		return nil, err
	}
	return machine.New(cfg, s, gen, sim.NewRNG(seed))
}

// newHistory returns the conflict-serializability recorder for the named
// scheduler. OPT is deferred-update: its writes install at commit time, and
// the check must order them there.
func newHistory(scheduler string) *history.Recorder {
	if scheduler == "OPT" {
		return history.NewDeferredWrites()
	}
	return history.New()
}

// RunStats reports how the engine itself executed a run (as opposed to what
// the simulated machine did): the calendar events it dispatched.
type RunStats struct {
	Events uint64
}

// RunWithStats is Run, additionally returning the engine's execution stats.
func RunWithStats(cfg Config, scheduler string, params Params, gen Generator, seed int64) (Summary, RunStats, error) {
	m, err := newMachine(cfg, scheduler, params, gen, seed)
	if err != nil {
		return Summary{}, RunStats{}, err
	}
	sum := m.Run()
	return sum, RunStats{Events: m.Engine().Executed()}, nil
}

// ErrNotSerializable is wrapped by the error of a checked simulator run
// whose committed history has a serialization cycle.
var ErrNotSerializable = errors.New("non-serializable history")

// RunChecked is Run with conflict-serializability verification: it returns
// an error wrapping ErrNotSerializable if the committed history's
// serialization graph has a cycle. NODC is expected to fail under
// contention.
func RunChecked(cfg Config, scheduler string, params Params, gen Generator, seed int64) (Summary, error) {
	return RunRecorded(cfg, scheduler, params, gen, seed, true, nil, nil)
}

// RunRecorded is Run with any of the run's recorders attached to the same
// run, each observing the control node's one event stream: check verifies
// the committed history as RunChecked does, a non-nil w receives the JSONL
// execution trace as in RunTraced, and a non-nil ob records the
// observability layer as in RunObserved. The recorders are passive, so the
// summary is Run's. A failed check is reported after the trace is flushed
// and ob is complete.
func RunRecorded(cfg Config, scheduler string, params Params, gen Generator, seed int64, check bool, w io.Writer, ob *Obs) (Summary, error) {
	m, err := newMachine(cfg, scheduler, params, gen, seed)
	if err != nil {
		return Summary{}, err
	}
	m.SetObs(ob)
	var rec *history.Recorder
	if check {
		rec = newHistory(scheduler)
		m.SetObserver(rec)
	}
	var tw *trace.Writer
	if w != nil {
		tw = trace.NewWriter(w)
		m.SetObserver(tw)
	}
	sum := m.Run()
	if tw != nil {
		if err := tw.Flush(); err != nil {
			return sum, fmt.Errorf("batchsched: writing trace: %w", err)
		}
	}
	if rec != nil {
		if err := rec.CheckSerializable(); err != nil {
			return sum, fmt.Errorf("batchsched: %s produced a %w: %w", scheduler, ErrNotSerializable, err)
		}
	}
	return sum, nil
}

// CI is the 95% confidence half-width of headline metrics across
// replications.
type CI = metrics.CI

// RunReplicated runs reps independent replications (seeds seed, seed+1,
// ...), returning their averaged summary and Student-t 95% confidence
// half-widths on mean response time and throughput.
func RunReplicated(cfg Config, scheduler string, params Params, gen Generator, seed int64, reps int) (Summary, CI, error) {
	return metrics.Replicate(seed, reps, func(seed int64) (Summary, error) {
		return Run(cfg, scheduler, params, gen, seed)
	})
}

// NewObs returns an enabled observability recorder, ready for RunObserved.
func NewObs() *Obs { return obs.New() }

// RunObserved is Run with the full observability layer attached: ob records
// lifecycle/CN/DPN spans over virtual time, samples the metrics registry on
// its configured interval, and — for GOW and LOW — collects the scheduler
// decision audit. Export with ob.WriteChromeTrace, ob.WriteMetricsCSV,
// ob.WriteAuditJSONL or ob.WriteHTMLReport. The summary is Run's.
func RunObserved(cfg Config, scheduler string, params Params, gen Generator, seed int64, ob *Obs) (Summary, error) {
	return RunRecorded(cfg, scheduler, params, gen, seed, false, nil, ob)
}

// RunTraced is Run with a JSONL execution trace (one record per step
// completion, commit, restart, fault abort, fault transition and retry)
// streamed to w. See internal/trace for the record format.
func RunTraced(cfg Config, scheduler string, params Params, gen Generator, seed int64, w io.Writer) (Summary, error) {
	return RunRecorded(cfg, scheduler, params, gen, seed, false, w, nil)
}

// NewExp1Workload returns the paper's Experiment-1 generator (Pattern1 over
// numFiles files).
func NewExp1Workload(numFiles int) Generator { return workload.NewExp1(numFiles) }

// NewExp2Workload returns the paper's Experiment-2 generator (Pattern2 over
// 8 read-only and 8 hot files).
func NewExp2Workload() Generator { return workload.NewExp2() }

// NewBatchScanWorkload returns the whole-file batch-scan generator: each
// transaction X-locks and scans one whole file of `objects` objects, then
// rewrites a second distinct file of the same size — the heavy batch
// workload the paper's introduction motivates, and the one the tracked Run
// benchmarks measure at full declustering.
func NewBatchScanWorkload(numFiles int, objects float64) Generator {
	return workload.NewBatchScan(numFiles, objects)
}

// WithCostError wraps a workload with the Experiment-3 estimation-error
// model: declared costs become C0*(1+x), x ~ N(0, sigma²), clamped at 0.
func WithCostError(gen Generator, sigma float64) Generator {
	return workload.WithError{Gen: gen, Sigma: sigma}
}

// NewMixedWorkload interleaves short transactions (one tiny step of
// shortCost objects on a random file, S-locked reads) with batches from the
// given generator — the OLTP mix the paper's introduction motivates.
// shortFraction is the probability an arrival is short.
func NewMixedWorkload(batch Generator, numFiles int, shortFraction, shortCost float64) Generator {
	return workload.Mixed{
		Batch:         batch,
		NumFiles:      numFiles,
		ShortFraction: shortFraction,
		ShortCost:     shortCost,
	}
}

// WithHeavyTail wraps a workload with a per-transaction unit-mean Pareto
// cost multiplier of shape alpha (> 1; smaller = heavier tail), capped at
// 100x: most transactions shrink slightly, a few grow enormously — the
// heavy-tailed cost mix of real batch traffic.
func WithHeavyTail(gen Generator, alpha float64) Generator {
	return workload.NewHeavyTailed(gen, alpha)
}

// Arrivals is an open arrival process (Config.Arrivals and service mode):
// nil keeps the paper's homogeneous Poisson at Config.ArrivalRate. See
// NewPoissonArrivals, NewDiurnalArrivals, NewBurstArrivals and
// NewTraceArrivals.
type Arrivals = workload.Arrivals

// NewPoissonArrivals returns the paper's homogeneous Poisson arrival
// process at rate transactions per second.
func NewPoissonArrivals(rate float64) Arrivals { return workload.Poisson{Rate: rate} }

// NewDiurnalArrivals returns a sinusoidally-modulated Poisson process:
// lambda(t) = base*(1 + amplitude*sin(2*pi*t/period)) with amplitude in
// [0, 1) — the day/night load shape.
func NewDiurnalArrivals(base, amplitude float64, period Time) Arrivals {
	return workload.NewDiurnal(base, amplitude, period)
}

// NewBurstArrivals returns a two-state Markov-modulated Poisson process:
// base rate normally, base*factor during bursts, with exponential state
// sojourns of the given means — flash-crowd traffic.
func NewBurstArrivals(base, factor float64, meanQuiet, meanBurst Time) Arrivals {
	return workload.NewBurst(base, factor, meanQuiet, meanBurst)
}

// NewTraceArrivals replays a fixed inter-arrival gap sequence, cycling when
// exhausted (deterministic-trace arrivals).
func NewTraceArrivals(gaps []Time) Arrivals { return workload.NewTrace(gaps) }

// AdmitPolicy is the streaming-admission/backpressure policy of service mode
// (Config.Service; see internal/admit): admission window, epoch cadence,
// bounded queue, per-class sojourn SLOs, and overload control.
type AdmitPolicy = admit.Policy

// EpochStats is one admission epoch's service snapshot, delivered to the
// epoch hook of a service-mode run.
type EpochStats = admit.EpochStats

// DefaultAdmitPolicy returns the default streaming-admission policy: an
// 8-wide window, 500 ms epochs, a 256-entry queue, 20% interactive traffic,
// overdue shedding, and overload control at a 30 s sojourn p95.
func DefaultAdmitPolicy() AdmitPolicy { return admit.DefaultPolicy() }

// RunService runs the simulator in streaming-admission service mode:
// cfg.Service must carry the admission policy and the run needs an arrival
// process (cfg.Arrivals, or the Poisson at cfg.ArrivalRate). Arrivals flow
// through the bounded deadline-ordered admission queue; the epoch loop
// admits them into the policy's in-flight window and sheds load under
// backpressure. epochHook, if non-nil, receives every epoch's snapshot.
// Deterministic in the seed.
func RunService(cfg Config, scheduler string, params Params, gen Generator, seed int64, epochHook func(EpochStats)) (Summary, error) {
	if cfg.Service == nil {
		return Summary{}, fmt.Errorf("batchsched: RunService needs cfg.Service (the admission policy)")
	}
	m, err := newMachine(cfg, scheduler, params, gen, seed)
	if err != nil {
		return Summary{}, err
	}
	if epochHook != nil {
		m.SetEpochHook(epochHook)
	}
	return m.Run(), nil
}

// NewFixedWorkload replays one pattern with a fixed file binding, e.g.
//
//	gen, err := batchsched.NewFixedWorkload("Xr(F1:1)->w(F1:0.2)",
//	    map[string]batchsched.FileID{"F1": 3})
func NewFixedWorkload(pattern string, binding map[string]FileID) (Generator, error) {
	p, err := model.ParsePattern(pattern)
	if err != nil {
		return nil, err
	}
	steps, err := p.Instantiate(binding)
	if err != nil {
		return nil, err
	}
	return workload.Fixed{Template: steps}, nil
}

// ArtifactIDs lists the regenerable artifacts in paper order — fig8,
// table2, fig9, table3, fig10, fig11, table4, fig12, fig13, table5 — plus
// the exp4 fault extension.
func ArtifactIDs() []string {
	out := make([]string, len(experiments.Artifacts))
	for i, a := range experiments.Artifacts {
		out[i] = a.ID
	}
	return out
}

// RegenerateArtifact reruns the simulations behind one of the paper's
// tables or figures and returns the rendered comparison table. The zero
// Options reproduces the paper's full 2,000,000-ms windows; see Options for
// scaled-down runs.
func RegenerateArtifact(id string, o Options) (string, error) {
	a, ok := experiments.FindArtifact(id)
	if !ok {
		return "", fmt.Errorf("batchsched: unknown artifact %q (want one of %v)", id, ArtifactIDs())
	}
	return a.Run(o).String(), nil
}

// ThroughputAt70s finds the arrival rate at which the configuration's mean
// response time reaches the paper's 70-second operating point and returns
// the throughput measured there. workload selects "exp1" or "exp2"; sigma
// adds the Experiment-3 error model.
func ThroughputAt70s(scheduler string, numFiles, dd int, wl string, sigma float64) float64 {
	p := experiments.Point{
		Scheduler: scheduler,
		NumFiles:  numFiles,
		DD:        dd,
		Load:      experiments.Workload(wl),
		Sigma:     sigma,
		Seed:      1,
	}
	lambda := experiments.SolveLambdaAtRT(p, 1, experiments.TargetRT, 0.02, 1.4, 0.01)
	p.Lambda = lambda
	return experiments.Run(p).TPS
}

// LiveConfig parameterizes the real-execution backend: the same scheduler
// core the simulator drives, executed for real — one goroutine per
// data-processing node over an in-memory partitioned store, Go channels for
// CN<->DPN messaging, and wall-clock round-robin service. See
// internal/engine/live and DESIGN.md §12.
type LiveConfig = live.Config

// DefaultLiveConfig mirrors the simulator's default machine shape on the
// live backend (8 nodes, 16 files, DD 1, compute-bound service).
func DefaultLiveConfig() LiveConfig { return live.DefaultConfig() }

// GenerateBatch pre-draws the steps of n transactions from gen, so the
// identical batch can be submitted to both backends (transaction i is
// byte-identical regardless of backend). Transaction i is also the i-th
// arrival of an open run over the same generator and seed (see
// workload.DrawBatch).
func GenerateBatch(gen Generator, seed int64, n int) [][]Step {
	return workload.DrawBatch(gen, seed, n)
}

// RunLiveBatch executes a closed batch on the live backend: every
// transaction is submitted up front and the run drives the batch to commit,
// summarizing at the makespan. The returned summary has the same shape as
// the simulator's (Window is the wall-clock makespan). It fails on a stall
// and, for a scheduler that keeps a lock table, on a DPN lock-guard
// violation (LiveBackend.Err).
func RunLiveBatch(cfg LiveConfig, scheduler string, params Params, batch [][]Step) (Summary, error) {
	return runLive(cfg, scheduler, params, batch, false)
}

// RunLiveChecked is RunLiveBatch with conflict-serializability
// verification of the real execution's history, as RunChecked is for Run.
func RunLiveChecked(cfg LiveConfig, scheduler string, params Params, batch [][]Step) (Summary, error) {
	return runLive(cfg, scheduler, params, batch, true)
}

// runLive is RunLiveBatch (check off) and RunLiveChecked (check on).
func runLive(cfg LiveConfig, scheduler string, params Params, batch [][]Step, check bool) (Summary, error) {
	b, err := NewLiveBackend(cfg, scheduler, params)
	if err != nil {
		return Summary{}, err
	}
	return RunLiveTelemetry(b, scheduler, batch, check)
}

// LiveBackend is the real-execution backend handle. Most callers use
// RunLiveBatch; telemetry servers build one with NewLiveBackend so they can
// attach an observer (SetObs), read its clock (Now), and render its
// registry and take snapshots (Snapshot) while RunLiveTelemetry drives the
// batch.
type LiveBackend = live.Backend

// NewLiveBackend builds an un-run live backend for the named scheduler.
func NewLiveBackend(cfg LiveConfig, scheduler string, params Params) (*LiveBackend, error) {
	s, err := sched.New(scheduler, params)
	if err != nil {
		return nil, err
	}
	return live.New(cfg, s)
}

// RunLiveTelemetry executes a closed batch on a pre-built backend (see
// NewLiveBackend), with optional conflict-serializability checking of the
// real history; RunLiveBatch and RunLiveChecked are this call on a fresh
// backend. scheduler must name the scheduler the backend was built with (it
// selects the history semantics). Like every live entry point it fails on a
// stall and, for a scheduler that keeps a lock table, on any guard
// violation (LiveBackend.Err).
func RunLiveTelemetry(b *LiveBackend, scheduler string, batch [][]Step, check bool) (Summary, error) {
	var rec *history.Recorder
	if check {
		rec = newHistory(scheduler)
		// Wall-clock stamps from racing goroutines are not globally ordered;
		// the recorder clamps them monotone (DESIGN.md §12).
		rec.SetMonotone(true)
		b.SetObserver(rec)
	}
	sum, err := b.RunBatch(batch)
	if err != nil {
		return sum, err
	}
	if check {
		if err := rec.CheckSerializable(); err != nil {
			return sum, fmt.Errorf("batchsched: %s produced a non-serializable live history: %w", scheduler, err)
		}
	}
	return sum, nil
}

// RunSimBatch executes the same kind of closed batch on the simulator
// (no arrival process; RunClosed drives the submitted transactions to
// commit and summarizes at the makespan), for sim-vs-live comparisons.
func RunSimBatch(cfg Config, scheduler string, params Params, batch [][]Step) (Summary, error) {
	cfg.ArrivalRate = 0
	cfg.Warmup = 0
	m, err := newMachine(cfg, scheduler, params, nil, 1)
	if err != nil {
		return Summary{}, err
	}
	sum, err := m.RunBatch(batch)
	if err != nil {
		return sum, fmt.Errorf("batchsched: sim %s batch: %w", scheduler, err)
	}
	return sum, nil
}

// SimVsLiveReport runs the Experiment-1 sim-vs-live comparison grid (the
// same closed batch through both backends, per scheduler) and returns the
// rendered ranking table. See internal/experiments.RunSimVsLive.
func SimVsLiveReport(seed int64, n int) (string, error) {
	results, err := experiments.RunSimVsLive(seed, n)
	if err != nil {
		return "", err
	}
	return experiments.SimVsLiveTable(results).String(), nil
}
