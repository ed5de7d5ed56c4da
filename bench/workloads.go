package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"batchsched"
	"batchsched/internal/admit"
	"batchsched/internal/engine/live"
	"batchsched/internal/experiments"
	"batchsched/internal/machine"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	wl "batchsched/internal/workload"
)

// mode selects how a child runs its timed rep.
type mode string

const (
	modeBare     mode = "bare"     // nothing attached: the end-to-end numbers
	modeTraced   mode = "traced"   // decorators, epoch hook and CPU profile
	modeObserved mode = "observed" // the repository's own obs layer attached
	modeVerify   mode = "verify"   // untimed serializability checks
)

// workload is one benchmark input. setup builds the inputs from the seed and
// warms the process up (both counted in setup_s); the returned rep is the
// timed unit of work, run once per child process.
type workload struct {
	name string
	// procs is GOMAXPROCS for the workload's children.
	procs int
	// backend is the layer ("machine" or "live") that runs the schedulers the
	// tracer wraps; "" when the workload builds its schedulers internally.
	// Simulator workloads also run observed children (modeObserved).
	backend string
	setup   func(seed int64, scale float64) (rep func(mode, *tracer) repOut, err error)
	verify  func(seed int64, scale float64) repOut
}

// repOut is what one rep (or one verification pass) produced.
type repOut struct {
	// Units counts checked runs (simulations, artifacts, live batches);
	// Failed counts those whose output check failed.
	Units, Failed int
	// Problems describes each failed check.
	Problems []string `json:",omitempty"`
	// Commits is the number of transactions committed by the rep.
	Commits int
	// Digest is a SHA-256 of the rep's outputs. Reps with one seed must agree
	// in every mode; a difference means an attached layer changed behaviour.
	Digest string
	// Events counts simulator calendar events (sim workloads).
	Events uint64 `json:",omitempty"`
	// ArtifactWallS is each paper artifact's wall time (paper-regen).
	ArtifactWallS map[string]float64 `json:",omitempty"`
	// CNBusy and DPNBusy are live busy fractions, averaged over batches.
	CNBusy, DPNBusy float64
}

func (o *repOut) fail(format string, args ...any) {
	o.Failed++
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// digestOf hashes the JSON encoding of v.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // summaries, tables and batches always encode
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// secs scales a simulated span given in seconds.
func secs(s, scale float64) sim.Time { return sim.FromSeconds(s * scale) }

var artifactIDs = batchsched.ArtifactIDs()

var workloads = []*workload{
	{name: "paper-regen", procs: 2, setup: paperSetup, verify: paperVerify},
	{name: "batch-scan", procs: 1, backend: "machine", setup: scanSetup, verify: scanVerify},
	{name: "service-open", procs: 1, backend: "machine", setup: serviceSetup, verify: serviceVerify},
	{name: "live-batch", procs: 2, backend: "live", setup: liveSetup, verify: liveVerify},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// paper-regen: every paper artifact, in paper order, through the artifact
// regenerators the way cmd/paperbench runs them, once for each of
// paperSeeds artifact seeds. Regeneration time depends on the seed (the
// solver's probes land in cheaper or dearer load regimes), so a rep covers
// several seeds to keep runs with different -seed comparable. 60-second
// windows keep a rep near 1.5 s on two cores; paperbench wall time grows
// faster than linearly with the window.

const paperSeeds = 4

func paperOptions(seed int64, scale float64) experiments.Options {
	return experiments.Options{Duration: secs(60, scale), SolverTol: 0.01, Seed: seed}
}

func paperSetup(seed int64, scale float64) (func(mode, *tracer) repOut, error) {
	regenInto(&repOut{ArtifactWallS: map[string]float64{}}, paperOptions(seed*paperSeeds, scale/4))
	return func(mode, *tracer) repOut {
		out := repOut{ArtifactWallS: make(map[string]float64)}
		var tables []string
		for k := int64(0); k < paperSeeds; k++ {
			tables = append(tables, regenInto(&out, paperOptions(seed*paperSeeds+k, scale))...)
		}
		out.Digest = digestOf(tables)
		return out
	}, nil
}

// regenInto regenerates every artifact, adding its wall time and checks to
// out, and returns the rendered tables.
func regenInto(out *repOut, o experiments.Options) []string {
	tables := make([]string, 0, len(experiments.Artifacts))
	for _, a := range experiments.Artifacts {
		start := time.Now()
		t := a.Run(o)
		out.ArtifactWallS[a.ID] += time.Since(start).Seconds()
		out.Units++
		if len(t.Rows) == 0 {
			out.fail("%s rendered no rows", a.ID)
		}
		tables = append(tables, t.String())
	}
	return tables
}

// paperVerify certifies conflict-serializability of an Experiment-1 point
// the artifacts sweep, for every paper scheduler that promises it. The
// window is not scaled: it is cheap, and shorter ones commit nothing.
func paperVerify(seed int64, _ float64) repOut {
	cfg := batchsched.DefaultConfig()
	cfg.ArrivalRate = 0.6
	cfg.Duration = secs(60, 1)
	var out repOut
	for _, s := range []string{"ASL", "GOW", "LOW", "C2PL", "OPT"} {
		checkSim(&out, cfg, s, wl.NewExp1(16), seed)
	}
	return out
}

func checkSim(out *repOut, cfg machine.Config, s string, gen batchsched.Generator, seed int64) {
	out.Units++
	sum, err := batchsched.RunChecked(cfg, s, batchsched.DefaultParams(), gen, seed)
	if err != nil {
		out.fail("%v", err)
	} else if sum.Completions == 0 {
		out.fail("%s committed nothing", s)
	}
}

// simRun is one simulator run of a sim workload's rep.
type simRun struct {
	sched  string
	lambda float64
}

// runSims runs each configuration on a fresh machine, wiring the tracer's
// decorators and epoch hook (or the obs layer) in from outside.
func runSims(cfg machine.Config, gen func() machine.Generator, runs []simRun, seed int64, m mode, tr *tracer) repOut {
	var out repOut
	sums := make([]metrics.Summary, 0, len(runs))
	for _, r := range runs {
		out.Units++
		c := cfg
		c.ArrivalRate = r.lambda
		if cfg.Service != nil {
			pol := *cfg.Service // a policy must not be shared across runs
			c.Service = &pol
		}
		var s sched.Scheduler = sched.MustNew(r.sched, sched.DefaultParams())
		g := gen()
		if tr != nil {
			s, g = tr.wrapSched(s), tr.wrapGen(g)
		}
		mc, err := machine.New(c, s, g, sim.NewRNG(seed))
		if err != nil {
			out.fail("%s: %v", r.sched, err)
			continue
		}
		switch {
		case tr != nil && c.Service != nil:
			mc.SetEpochHook(tr.epoch)
		case m == modeObserved:
			mc.SetObs(obs.New())
		}
		sum := mc.Run()
		out.Commits += sum.Completions
		out.Events += mc.Engine().Executed()
		if sum.Completions == 0 {
			out.fail("%s committed nothing", r.sched)
		}
		sums = append(sums, sum)
	}
	out.Digest = digestOf(sums)
	return out
}

// batch-scan: whole-file read-rewrite batches declustered over all 16
// nodes, so each step runs as 16 cohorts and the event calendar and the DPN
// fast-forward replay carry most of the host time.

var scanRuns = []simRun{{"GOW", 0.15}, {"LOW", 0.15}, {"C2PL", 0.08}, {"NODC", 0.20}}

func scanConfig(duration sim.Time) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.NumNodes, cfg.DD, cfg.Duration = 16, 16, duration
	return cfg
}

func scanGen() machine.Generator { return wl.NewBatchScan(16, 32) }

func scanSetup(seed int64, scale float64) (func(mode, *tracer) repOut, error) {
	runSims(scanConfig(secs(10_000, scale)), scanGen, scanRuns, seed, modeBare, nil)
	cfg := scanConfig(secs(40_000, scale))
	return func(m mode, tr *tracer) repOut { return runSims(cfg, scanGen, scanRuns, seed, m, tr) }, nil
}

func scanVerify(seed int64, scale float64) repOut {
	var out repOut
	for _, r := range scanRuns[:3] { // NODC does not promise serializability
		cfg := scanConfig(secs(10_000, scale))
		cfg.ArrivalRate = r.lambda
		checkSim(&out, cfg, r.sched, scanGen(), seed)
	}
	return out
}

// service-open: an open Poisson stream through the bounded admission window,
// half short S-locked reads and half Experiment-1 batches.

var serviceRuns = []simRun{{"GOW", 0.5}, {"LOW", 0.5}, {"C2PL", 0.5}}

func serviceConfig(duration sim.Time) machine.Config {
	cfg := machine.DefaultConfig()
	pol := admit.DefaultPolicy()
	cfg.Service, cfg.Duration = &pol, duration
	return cfg
}

func serviceGen() machine.Generator {
	return wl.Mixed{Batch: wl.NewExp1(16), NumFiles: 16, ShortFraction: 0.5, ShortCost: 0.2}
}

func serviceSetup(seed int64, scale float64) (func(mode, *tracer) repOut, error) {
	runSims(serviceConfig(secs(3_000, scale)), serviceGen, serviceRuns, seed, modeBare, nil)
	cfg := serviceConfig(secs(12_000, scale))
	return func(m mode, tr *tracer) repOut { return runSims(cfg, serviceGen, serviceRuns, seed, m, tr) }, nil
}

func serviceVerify(seed int64, scale float64) repOut {
	var out repOut
	for _, r := range serviceRuns {
		cfg := serviceConfig(secs(3_000, scale))
		cfg.ArrivalRate = r.lambda
		checkSim(&out, cfg, r.sched, serviceGen(), seed)
	}
	return out
}

// live-batch: the real-execution backend with pacing off, liveBatches
// closed batches of Experiment-1 transactions per scheduler. At 1024
// transactions ASL refuses most admissions and retries them at every commit.
//
// GOW and LOW are left out: on this backend they occasionally stall with
// every active transaction blocked or policy-delayed and nothing in flight,
// until the 30-second deadline fails the run (about 1% of 1024-transaction
// batches on a contended host). ASL and C2PL did not stall in 800 batches
// each under the same contention.

var liveScheds = []string{"ASL", "C2PL"}

const liveBatches = 4

func liveBatchSize(scale float64) int { return max(16, int(1024*scale)) }

func liveBatch(seed int64, size int) [][]model.Step {
	return batchsched.GenerateBatch(wl.NewExp1(16), seed, size)
}

func liveSetup(seed int64, scale float64) (func(mode, *tracer) repOut, error) {
	warm := [][][]model.Step{liveBatch(seed*liveBatches+liveBatches, liveBatchSize(scale))}
	if out := runLive(warm, nil); out.Failed > 0 {
		return nil, fmt.Errorf("live warm-up: %v", out.Problems)
	}
	batches := make([][][]model.Step, liveBatches)
	for i := range batches {
		batches[i] = liveBatch(seed*liveBatches+int64(i), liveBatchSize(scale))
	}
	return func(_ mode, tr *tracer) repOut { return runLive(batches, tr) }, nil
}

func runLive(batches [][][]model.Step, tr *tracer) repOut {
	var out repOut
	runs := float64(len(batches) * len(liveScheds))
	for _, batch := range batches {
		for _, name := range liveScheds {
			out.Units++
			var s sched.Scheduler = sched.MustNew(name, sched.DefaultParams())
			if tr != nil {
				s = tr.wrapSched(s)
			}
			b, err := live.New(live.DefaultConfig(), s)
			if err != nil {
				out.fail("%s: %v", name, err)
				continue
			}
			for _, steps := range batch {
				b.Submit(steps)
			}
			sum := b.Run()
			out.Commits += sum.Completions
			out.CNBusy += sum.CNUtilization / runs
			out.DPNBusy += sum.DPNUtilization / runs
			switch {
			case b.Err() != nil:
				out.fail("live %s: %v", name, b.Err())
			case sum.Completions != len(batch):
				out.fail("live %s committed %d of %d", name, sum.Completions, len(batch))
			case b.Violations() != 0:
				out.fail("live %s: %d lock-guard violations", name, b.Violations())
			}
		}
	}
	// Live timing is nondeterministic; what must repeat is the input and the
	// fact that every transaction committed.
	out.Digest = digestOf([]any{batches, out.Commits})
	return out
}

func liveVerify(seed int64, scale float64) repOut {
	batch := liveBatch(seed*liveBatches, liveBatchSize(scale/4))
	var out repOut
	for _, s := range liveScheds {
		out.Units++
		sum, err := batchsched.RunLiveChecked(batchsched.DefaultLiveConfig(), s, batchsched.DefaultParams(), batch)
		if err != nil {
			out.fail("%v", err)
		} else if sum.Completions != len(batch) {
			out.fail("live %s committed %d of %d", s, sum.Completions, len(batch))
		}
	}
	return out
}
