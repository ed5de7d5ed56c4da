// Package experiments defines and runs the paper's evaluation: one
// regenerator per table and figure (Fig. 8-13, Tables 2-5), built on a
// parameterized simulation point, a parallel runner, and a bisection solver
// for "the arrival rate at which mean response time is 70 seconds" — the
// paper's throughput metric. It also holds the four experiments' parameter
// grids, which the regenerators and the replicated grids of paperbench
// -grid (RunGrid) both expand, and the service mode's fixed SLO with its
// sustained-TPS-at-SLO capacity solve (ServiceCapacity).
package experiments

import (
	"fmt"

	"batchsched/internal/admit"
	"batchsched/internal/fault"
	"batchsched/internal/machine"
	"batchsched/internal/metrics"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/stats"
	"batchsched/internal/workload"
)

// Workload selects the experiment's transaction generator.
type Workload string

const (
	// Exp1 is Pattern1 over NumFiles files (blocking-heavy).
	Exp1 Workload = "exp1"
	// Exp2 is Pattern2 over 8 read-only + 8 hot files (hot-set updating).
	Exp2 Workload = "exp2"
)

// Point is one fully specified simulation configuration.
type Point struct {
	// Scheduler is the paper name ("NODC", "ASL", "GOW", "LOW", "C2PL",
	// "C2PL+M", "OPT").
	Scheduler string
	// MPL is the C2PL+M admission limit (ignored by the others).
	MPL int
	// Lambda is the arrival rate in TPS.
	Lambda float64
	// NumFiles is the database size in files (Exp1; Exp2 fixes 8+8).
	NumFiles int
	// DD is the degree of declustering.
	DD int
	// Sigma is the Experiment-3 estimation-error standard deviation.
	Sigma float64
	// Load selects the workload generator.
	Load Workload
	// Seed seeds the run; replication r uses Seed+r.
	Seed int64
	// Reps is the number of independent replications to average (>= 1).
	Reps int
	// Duration overrides the simulated span (0 = the paper's 2,000,000 ms).
	Duration sim.Time
	// K overrides LOW's conflict bound (0 = the paper's K=2).
	K int
	// ExactK applies K as LOW's conflict bound even when it is zero.
	ExactK bool
	// GOWGreedy, RunToCompletion, NoWakeOnGrant and ChargeRetryCPU are the
	// ablation knobs of sched.Params and machine.Config of the same names.
	GOWGreedy, RunToCompletion, NoWakeOnGrant, ChargeRetryCPU bool
	// RestartDelay holds fault-aborted transactions back before they are
	// resubmitted (0 = immediate, the paper's failure-free setting).
	RestartDelay sim.Time
	// Faults configures the fault injector (zero value = failure-free).
	Faults fault.Config
	// Service switches the run into streaming-admission mode
	// (internal/admit): arrivals flow through the bounded admission queue
	// and the epoch loop instead of the closed paper loop. nil = closed.
	Service *admit.Policy
	// Arrival names the open arrival process for service runs: "" or
	// "poisson" (homogeneous at Lambda), "diurnal", or "burst". A fresh
	// process is built per replication (Burst is stateful).
	Arrival string
}

func (p Point) generator() machine.Generator {
	var g machine.Generator
	switch p.Load {
	case Exp2:
		g = workload.NewExp2()
	default:
		g = workload.NewExp1(p.NumFiles)
	}
	if p.Sigma > 0 {
		g = workload.WithError{Gen: g, Sigma: p.Sigma}
	}
	return g
}

// Run simulates the point, averaging Reps replications.
func Run(p Point) metrics.Summary {
	sum, _, _ := metrics.Replicate(p.Seed, p.Reps, func(seed int64) (metrics.Summary, error) {
		return runOnce(p, seed), nil
	})
	return sum
}

// RunObserved simulates one replication (at p.Seed) of the point with the
// observability recorder attached. The instrumentation is passive: the
// returned summary is identical to Run's first replication. It bypasses the
// replication memo, since the recorder must see the run.
func RunObserved(p Point, ob *obs.Observer) metrics.Summary {
	return runObserved(p, p.Seed, ob)
}

// runObserved simulates one replication of p at seed. It is a pure function
// of (p, seed): the replication memo (runOnce) relies on that, so any input
// that does not come from the Point — a global, a clock, a shared generator —
// must either join the Point or bypass the memo.
func runObserved(p Point, seed int64, ob *obs.Observer) metrics.Summary {
	cfg, params := p.config()
	m := newMachine(cfg, p.Scheduler, params, p.generator(), seed)
	m.SetObs(ob)
	return m.Run()
}

// config maps the point onto the machine and scheduler parameters: the
// paper's Table-1 defaults with the point's values on top. A service point
// gets its own copy of the policy and a fresh arrival process, since the
// machine must not share their state across replications.
func (p Point) config() (machine.Config, sched.Params) {
	params := sched.DefaultParams()
	params.MPL = p.MPL
	if p.K > 0 || p.ExactK {
		params.K = p.K
	}
	params.GOWGreedy = p.GOWGreedy
	cfg := machine.DefaultConfig()
	cfg.ArrivalRate = p.Lambda
	cfg.NumFiles = p.NumFiles
	if p.Load == Exp2 {
		cfg.NumFiles = 16
	}
	cfg.DD = p.DD
	if p.Duration > 0 {
		cfg.Duration = p.Duration
	}
	cfg.RestartDelay = p.RestartDelay
	cfg.RunToCompletion = p.RunToCompletion
	cfg.NoWakeOnGrant = p.NoWakeOnGrant
	cfg.ChargeRetryCPU = p.ChargeRetryCPU
	cfg.Faults = p.Faults
	if p.Service != nil {
		pol := *p.Service
		cfg.Service = &pol
		arr, err := ArrivalProcess(p.Arrival, p.Lambda)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		cfg.Arrivals = arr
	}
	return cfg, params
}

// newMachine builds one simulation run of this package and counts it in
// SimCounts: every simulation the experiments run is assembled here.
func newMachine(cfg machine.Config, scheduler string, params sched.Params, gen machine.Generator, seed int64) *machine.Machine {
	simulated.Add(1)
	m, err := machine.New(cfg, sched.MustNew(scheduler, params), gen, sim.NewRNG(seed))
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return m
}

// RunAll simulates many points concurrently on the shared worker pool
// (GOMAXPROCS workers) and returns summaries in input order. A panic in any
// point — e.g. an unknown scheduler name — is re-raised here after the
// other points finish.
func RunAll(pts []Point) []metrics.Summary {
	out := make([]metrics.Summary, len(pts))
	parallelEach(len(pts), func(i int) { out[i] = Run(pts[i]) })
	return out
}

// TargetRT is the response-time operating point the paper measures
// throughput at.
const TargetRT = 70 * sim.Second

// SolveLambdaAtRT finds the largest arrival rate at which the point's mean
// response time stays at (or below) the target — the paper's "throughput
// (TPS) at Resp.Time = 70 sec". It brackets [lo, hi] and bisects on lambda
// to within tol. reps > 0 overrides the point's replication count: every
// probe averages that many independent seeds and the bisection compares the
// replicated mean against the target, so the knee is not hostage to one
// seed's noise (reps <= 0 keeps p.Reps, minimum 1). Mean RT is monotone in
// lambda for a fixed seed set, which the solver relies on. When even lo
// exceeds the target it returns lo; when hi stays under it returns hi.
func SolveLambdaAtRT(p Point, reps int, target sim.Time, lo, hi, tol float64) float64 {
	if reps > 0 {
		p.Reps = reps
	}
	rtAt := func(lambda float64) sim.Time {
		q := p
		q.Lambda = lambda
		return Run(q).MeanRT
	}
	if rtAt(hi) <= target {
		return hi
	}
	if rtAt(lo) > target {
		return lo
	}
	lo, _, _ = stats.Bisect(lo, hi, tol, func(mid float64) (bool, error) {
		return rtAt(mid) <= target, nil
	})
	// Return the largest VERIFIED arrival rate, never the untested
	// midpoint: C2PL and OPT have near-vertical stability cliffs (RT jumps
	// from ~20 s to hundreds within ~0.03 TPS), and a midpoint that lands a
	// hair past the cliff would report the thrashing side's collapsed
	// throughput.
	return lo
}

// MPLSweep is the C2PL+M admission-limit candidate set; BestC2PLM returns
// the best-performing variant at the point, mirroring the paper's "the best
// C2PL to control multiprogramming level".
var MPLSweep = []int{2, 4, 8, 16, 32}

// BestC2PLM runs C2PL+M over MPLSweep at the point and returns the summary
// and mpl with the lowest mean response time.
func BestC2PLM(p Point) (metrics.Summary, int) {
	p.Scheduler = "C2PL+M"
	pts := make([]Point, len(MPLSweep))
	for i, mpl := range MPLSweep {
		q := p
		q.MPL = mpl
		pts[i] = q
	}
	sums := RunAll(pts)
	best := 0
	for i := 1; i < len(sums); i++ {
		if sums[i].MeanRT < sums[best].MeanRT {
			best = i
		}
	}
	return sums[best], MPLSweep[best]
}
