package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"batchsched"
	"batchsched/internal/admit"
	"batchsched/internal/experiments"
	"batchsched/internal/metrics"
	"batchsched/internal/obs"
	"batchsched/internal/sim"
)

// serviceRun carries every flag the streaming-admission mode consumes; main
// assembles it and exits with runServiceMode's code.
type serviceRun struct {
	backend string
	sched   string
	params  batchsched.Params
	gen     batchsched.Generator
	cfg     batchsched.Config     // sim-backend machine config (duration, files, DD, ...)
	live    batchsched.LiveConfig // live-backend machine shape

	wl     string
	lambda float64
	seed   int64
	reps   int
	asJSON bool

	// Policy knobs (negative durations = keep the policy default).
	arrival        string
	duration       time.Duration // live wall-clock arrival span
	epoch          time.Duration
	maxQueue       int
	interactive    float64
	sloBatch       time.Duration
	sloInteractive time.Duration
	overloadP95    time.Duration
	mpl            int

	capacity             bool
	capLo, capHi, capTol float64

	serveAddr string
	linger    time.Duration
}

// simDur converts a wall flag duration onto the policy clock (sim.Time is
// microseconds on both backends).
func simDur(d time.Duration) sim.Time { return sim.Time(d / time.Microsecond) }

// policy assembles the admission policy from the flags over the default.
// -mpl sizes the admission window here (the open-system analogue of the
// C2PL+M admission limit).
func (f serviceRun) policy() (batchsched.AdmitPolicy, error) {
	pol := batchsched.DefaultAdmitPolicy()
	if f.mpl > 0 {
		pol.MPL = f.mpl
	}
	if f.epoch > 0 {
		pol.Epoch = simDur(f.epoch)
	}
	if f.maxQueue > 0 {
		pol.MaxQueue = f.maxQueue
	}
	if f.interactive >= 0 {
		pol.InteractiveFraction = f.interactive
	}
	if f.sloBatch >= 0 {
		pol.QueueSLO[admit.Batch] = simDur(f.sloBatch)
	}
	if f.sloInteractive >= 0 {
		pol.QueueSLO[admit.Interactive] = simDur(f.sloInteractive)
	}
	if f.overloadP95 >= 0 {
		pol.OverloadP95 = simDur(f.overloadP95)
	}
	return pol, pol.Validate()
}

// runServiceMode dispatches -service to the chosen backend and returns the
// process exit code. validateModeFlags has vetted the flag combination.
func runServiceMode(f serviceRun) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
		return 1
	}
	pol, err := f.policy()
	if err != nil {
		return fail(err)
	}
	if f.capacity {
		return runServiceCapacity(f, pol, fail)
	}
	switch f.backend {
	case "sim":
		return runServiceSim(f, pol, fail)
	case "live":
		return runServiceLive(f, pol, fail)
	default:
		return fail(fmt.Errorf("unknown backend %q (want sim or live)", f.backend))
	}
}

// runServiceSim runs the virtual-clock service: -reps replications on seeds
// seed..seed+reps-1 (fresh arrival process each — burst is stateful),
// averaged; the epoch trail describes the first replication.
func runServiceSim(f serviceRun, pol batchsched.AdmitPolicy, fail func(error) int) int {
	cfg := f.cfg
	cfg.Service = &pol
	cfg.MPL = 0
	cfg.ArrivalRate = f.lambda
	var epochs []batchsched.EpochStats
	avg, _, err := metrics.Replicate(f.seed, f.reps, func(seed int64) (batchsched.Summary, error) {
		arr, err := experiments.ArrivalProcess(f.arrival, f.lambda)
		if err != nil {
			return batchsched.Summary{}, err
		}
		cfg.Arrivals = arr
		hook := func(batchsched.EpochStats) {}
		if seed == f.seed {
			hook = func(es batchsched.EpochStats) { epochs = append(epochs, es) }
		}
		return batchsched.RunService(cfg, f.sched, f.params, f.gen, seed, hook)
	})
	if err != nil {
		return fail(err)
	}
	return printService(f, fmt.Sprintf("sim, %.0f s virtual, %d rep(s)", cfg.Duration.Seconds(), max(f.reps, 1)), avg, epochs)
}

// runServiceLive runs the wall-clock service on the live backend, with the
// /metrics//slo endpoint up for the duration when -serve is set.
func runServiceLive(f serviceRun, pol batchsched.AdmitPolicy, fail func(error) int) int {
	lcfg := f.live
	lcfg.Service = &pol
	lcfg.ServiceDuration = f.duration
	b, err := batchsched.NewLiveBackend(lcfg, f.sched, f.params)
	if err != nil {
		return fail(err)
	}
	var epochs []batchsched.EpochStats
	b.SetEpochHook(func(es batchsched.EpochStats) { epochs = append(epochs, es) })

	if f.serveAddr != "" {
		// Metrics only: spans and the audit would grow with the run.
		ob := obs.NewMetricsOnly()
		b.SetObs(ob)
		srv, err := serveLive(f.serveAddr, b, ob)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
	}

	arr, aerr := experiments.ArrivalProcess(f.arrival, f.lambda)
	if aerr != nil {
		return fail(aerr)
	}
	sum := b.RunService(f.gen, arr, f.seed)
	if err := b.Err(); err != nil {
		return fail(err)
	}
	code := printService(f, fmt.Sprintf("live, %v wall, %d nodes, pace %v", f.duration, lcfg.NumNodes, lcfg.PacePerObject), sum, epochs)
	if f.serveAddr != "" {
		linger(f.linger)
	}
	return code
}

// runServiceCapacity solves sustained-TPS-at-SLO for the sim service point
// against the service SLO.
func runServiceCapacity(f serviceRun, pol batchsched.AdmitPolicy, fail func(error) int) int {
	p := experiments.Point{
		Scheduler: f.sched,
		NumFiles:  f.cfg.NumFiles,
		DD:        f.cfg.DD,
		Load:      experiments.Workload(f.wl),
		Seed:      f.seed,
		Reps:      f.reps,
		Duration:  f.cfg.Duration,
		Service:   &pol,
		Arrival:   f.arrival,
	}
	res, err := experiments.ServiceCapacity(p, f.capLo, f.capHi, f.capTol)
	if err != nil {
		return fail(err)
	}
	if f.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(err)
		}
		return 0
	}
	fmt.Printf("scheduler             %s (%s arrivals, %s, window %d)\n", f.sched, f.arrival, f.wl, pol.MPL)
	fmt.Println("SLO spec              service-default")
	if !res.Passed {
		fmt.Printf("sustained TPS at SLO  none: even lambda=%.3f fails the SLO\n", f.capLo)
	} else {
		fmt.Printf("sustained TPS at SLO  %.3f TPS (verified at lambda=%.3f)\n", res.SustainedTPS, res.Lambda)
	}
	fmt.Printf("probes (%d):\n", len(res.Trials))
	for _, tr := range res.Trials {
		verdict := "FAIL"
		if tr.Pass {
			verdict = "pass"
		}
		fmt.Printf("  lambda=%.3f  %s  tps=%.3f  p95=%.1fs  shed=%.1f%%\n",
			tr.Lambda, verdict, tr.Measures.TPS, tr.Measures.P95RTSeconds, 100*tr.Measures.ShedRate())
	}
	return 0
}

// printService renders the service summary (or its JSON) and returns the
// exit code.
func printService(f serviceRun, backendDesc string, sum batchsched.Summary, epochs []batchsched.EpochStats) int {
	if f.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
			return 1
		}
		return 0
	}
	overloaded := 0
	for _, es := range epochs {
		if es.Overloaded {
			overloaded++
		}
	}
	drain := sum.Sheds - sum.ShedQueueFull - sum.ShedDeadline - sum.ShedOverload
	admitted := sum.Arrivals - sum.Sheds
	fmt.Printf("mode             service (%s)\n", backendDesc)
	fmt.Printf("scheduler        %s\n", f.sched)
	fmt.Printf("arrivals         %s at %.3f TPS offered (%s workload)\n", f.arrival, f.lambda, f.wl)
	fmt.Printf("offered          %d: admitted %d, shed %d (queue-full %d, deadline %d, overload %d, drain %d), evicted %d\n",
		sum.Arrivals, admitted, sum.Sheds, sum.ShedQueueFull, sum.ShedDeadline, sum.ShedOverload, drain, sum.Evictions)
	fmt.Printf("completions      %d (throughput %.3f TPS)\n", sum.Completions, sum.TPS)
	fmt.Printf("resp. time       mean %.1f s (p50 %.1f, p95 %.1f, max %.1f)\n",
		sum.MeanRT.Seconds(), sum.P50RT.Seconds(), sum.P95RT.Seconds(), sum.MaxRT.Seconds())
	fmt.Printf("epochs           %d total, %d overloaded\n", len(epochs), overloaded)
	fmt.Printf("blocks %d  delays %d  admission rejects %d  restarts %d\n",
		sum.Blocks, sum.Delays, sum.AdmissionRejects, sum.Restarts)
	return 0
}
