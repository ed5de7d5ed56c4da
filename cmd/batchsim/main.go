// Command batchsim runs one batch-scheduling simulation and prints its
// metrics.
//
// Examples:
//
//	batchsim -sched LOW -lambda 0.6 -numfiles 16 -dd 2
//	batchsim -sched C2PL+M -mpl 8 -lambda 1.2 -duration 2000
//	batchsim -sched GOW -workload exp1 -sigma 1.0 -json
//	batchsim -sched ASL -workload exp2 -lambda 1.0 -check
//	batchsim -backend live -sched GOW -txns 64 -check
//	batchsim -compare -txns 32
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"batchsched"
	"batchsched/internal/metrics"
)

func main() {
	var (
		schedName = flag.String("sched", "LOW", "scheduler: "+strings.Join(batchsched.Schedulers(), ", "))
		lambda    = flag.Float64("lambda", 0.6, "arrival rate (transactions per second)")
		numFiles  = flag.Int("numfiles", 16, "number of files (Experiment 1)")
		numNodes  = flag.Int("numnodes", 8, "number of data-processing nodes")
		dd        = flag.Int("dd", 1, "degree of declustering")
		duration  = flag.Float64("duration", 2000, "simulated span in seconds (paper: 2000)")
		warmup    = flag.Float64("warmup", 0, "warm-up span excluded from metrics, seconds")
		seed      = flag.Int64("seed", 1, "random seed")
		reps      = flag.Int("reps", 1, "independent replications to average")
		wl        = flag.String("workload", "exp1", "workload: exp1 (blocking) or exp2 (hot set)")
		sigma     = flag.Float64("sigma", 0, "declared-cost error ratio std deviation (Experiment 3)")
		mpl       = flag.Int("mpl", 0, "C2PL+M admission limit (0 = unlimited)")
		k         = flag.Int("k", 2, "LOW conflict bound K")
		check     = flag.Bool("check", false, "verify conflict-serializability of the run")
		progress  = flag.Bool("progress", false, "print engine execution stats after the run: calendar events dispatched and events/sec")
		backend   = flag.String("backend", "sim", "execution backend: sim (virtual clock) or live (real goroutine-per-DPN execution)")
		txns      = flag.Int("txns", 64, "closed-batch size for -backend live and -compare")
		pace      = flag.Duration("pace", 0, "live backend: minimum wall time per object scanned (e.g. 300us)")
		rows      = flag.Int("rows", 0, "live backend: rows per object in the in-memory store (0 = default)")
		compare   = flag.Bool("compare", false, "run the Exp-1 sim-vs-live ranking comparison and print the table")
		traceFile = flag.String("trace", "", "write a JSONL execution trace to this file (single rep only)")
		asJSON    = flag.Bool("json", false, "print the summary as JSON")

		service     = flag.Bool("service", false, "streaming-admission service mode: open arrivals through a bounded admission window with backpressure and load shedding (both backends; see DESIGN.md §15)")
		arrival     = flag.String("arrival", "poisson", "service mode: arrival process at -lambda: poisson, diurnal or burst")
		heavytail   = flag.Float64("heavytail", 0, "heavy-tail the workload's step costs with Pareto tail index alpha (0 = off; smaller alpha = heavier tail)")
		serviceDur  = flag.Duration("service-duration", 2*time.Second, "live service mode: wall-clock arrival span (the run then drains)")
		epochFlag   = flag.Duration("epoch", 0, "service mode: admission epoch cadence (0 = policy default 500ms)")
		maxQueue    = flag.Int("max-queue", 0, "service mode: admission queue bound (0 = policy default 256)")
		interactive = flag.Float64("interactive", -1, "service mode: interactive arrival fraction (-1 = policy default 0.2)")
		sloBatch    = flag.Duration("slo-batch", -1, "service mode: batch-class admission-sojourn SLO (0 = no deadline; -1 = policy default 120s)")
		sloInter    = flag.Duration("slo-interactive", -1, "service mode: interactive-class admission-sojourn SLO (0 = no deadline; -1 = policy default 10s)")
		overloadP95 = flag.Duration("overload-p95", -1, "service mode: admission-sojourn p95 that trips overload shedding (0 = off; -1 = policy default 30s)")
		capacity    = flag.Bool("capacity", false, "service mode, sim backend: bisect the arrival rate for sustained-TPS-at-SLO instead of one run at -lambda")
		capLo       = flag.Float64("cap-lo", 0.05, "-capacity: bisection bracket floor, TPS")
		capHi       = flag.Float64("cap-hi", 2.0, "-capacity: bisection bracket ceiling, TPS")
		capTol      = flag.Float64("cap-tol", 0.05, "-capacity: bisection tolerance, TPS")

		serveAddr   = flag.String("serve", "", "serve live telemetry at this address (host:port; :0 picks a port): /metrics, /healthz, /slo, /debug/pprof; requires -backend live")
		serveLinger = flag.Duration("serve-linger", 0, "keep the -serve endpoint up this long after the run completes (for external scrapers)")

		traceOut        = flag.String("trace-out", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) to this file (single rep)")
		metricsOut      = flag.String("metrics-out", "", "write the sampled metrics time-series as CSV to this file (single rep)")
		metricsInterval = flag.Float64("metrics-interval", 1000, "metrics sampling interval, virtual milliseconds")
		auditOut        = flag.String("audit", "", "write the scheduler decision audit as JSONL to this file (single rep)")
		reportOut       = flag.String("report", "", "write a self-contained HTML report to this file (single rep)")
		cpuProfile      = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile      = flag.String("memprofile", "", "write a heap profile at exit to this file")

		mtbf         = flag.Float64("mtbf", 0, "per-node mean time between crashes, seconds (0 = no crashes)")
		mttr         = flag.Float64("mttr", 10, "mean outage per crash, seconds (with -mtbf)")
		straggler    = flag.String("straggler", "", "straggler spec mtbf/duration/factor, seconds (e.g. 200/20/3)")
		msgloss      = flag.Float64("msgloss", 0, "CN<->DPN message loss probability, [0,1)")
		msgdelay     = flag.Float64("msgdelay", 0, "mean extra message network delay, milliseconds")
		msgtimeout   = flag.Float64("msgtimeout", 5, "step retry timeout, seconds (with -msgloss)")
		msgretries   = flag.Int("msgretries", 2, "step retries before the transaction aborts")
		restartDelay = flag.Float64("restartdelay", 0, "hold aborted transactions back, seconds")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		exitOn(1, err)
		exitOn(1, pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
			}
		}()
	}

	obsOut := *traceOut != "" || *metricsOut != "" || *auditOut != "" || *reportOut != ""
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	exitOn(2, validateModeFlags(modeFlags{
		backend: *backend, sched: *schedName, service: *service, compare: *compare,
		check: *check, progress: *progress, reps: *reps,
		faults:  *mtbf > 0 || *straggler != "" || *msgloss > 0 || *msgdelay > 0,
		crashes: *mtbf > 0, msgLoss: *msgloss > 0,
		trace: *traceFile != "", obsOut: obsOut,
		lambda: *lambda, capacity: *capacity, heavytail: *heavytail > 0, set: set,
	}))
	exitOn(2, validateTelemetryFlags(*serveAddr, *backend, *compare))
	exitOn(2, validateRunFlags(*wl, *numFiles, *heavytail, *txns, *reps))

	cfg := batchsched.DefaultConfig()
	cfg.ArrivalRate = *lambda
	cfg.NumFiles = *numFiles
	cfg.NumNodes = *numNodes
	cfg.DD = *dd
	cfg.Duration = batchsched.Time(*duration * float64(batchsched.Second))
	cfg.Warmup = batchsched.Time(*warmup * float64(batchsched.Second))
	cfg.RestartDelay = batchsched.Time(*restartDelay * float64(batchsched.Second))
	cfg.Faults = batchsched.FaultConfig{
		MTBF:       batchsched.Time(*mtbf * float64(batchsched.Second)),
		MTTR:       batchsched.Time(*mttr * float64(batchsched.Second)),
		MsgLoss:    *msgloss,
		MsgDelay:   batchsched.Time(*msgdelay * float64(batchsched.Millisecond)),
		MsgTimeout: batchsched.Time(*msgtimeout * float64(batchsched.Second)),
		MsgRetries: *msgretries,
	}
	if *mtbf <= 0 {
		cfg.Faults.MTTR = 0
	}
	if *msgloss <= 0 {
		cfg.Faults.MsgTimeout = 0
	}
	if *straggler != "" {
		var smtbf, sdur, sfactor float64
		if _, err := fmt.Sscanf(*straggler, "%g/%g/%g", &smtbf, &sdur, &sfactor); err != nil {
			exitOn(2, fmt.Errorf("bad -straggler %q (want mtbf/duration/factor, e.g. 200/20/3)", *straggler))
		}
		cfg.Faults.StragglerMTBF = batchsched.Time(smtbf * float64(batchsched.Second))
		cfg.Faults.StragglerDuration = batchsched.Time(sdur * float64(batchsched.Second))
		cfg.Faults.StragglerFactor = sfactor
	}
	exitOn(2, cfg.Faults.Validate())

	params := batchsched.DefaultParams()
	params.MPL = *mpl
	params.K = *k

	var gen batchsched.Generator
	switch *wl {
	case "exp1":
		gen = batchsched.NewExp1Workload(*numFiles)
	case "exp2":
		gen = batchsched.NewExp2Workload()
	default:
		exitOn(2, fmt.Errorf("unknown workload %q (want exp1 or exp2)", *wl))
	}
	if *sigma > 0 {
		gen = batchsched.WithCostError(gen, *sigma)
	}
	if *heavytail > 0 {
		gen = batchsched.WithHeavyTail(gen, *heavytail)
	}

	// The live backend's machine shape, shared by closed batches and service
	// runs. A small jittered restart delay breaks plain-2PL abort/re-acquire
	// livelock on wall clocks; -restartdelay (seconds) overrides it.
	lcfg := batchsched.DefaultLiveConfig()
	lcfg.NumNodes = *numNodes
	lcfg.NumFiles = *numFiles
	lcfg.DD = *dd
	if *rows > 0 {
		lcfg.RowsPerObject = *rows
	}
	lcfg.PacePerObject = *pace
	lcfg.RestartDelay = 2 * time.Millisecond
	lcfg.RestartJitter = true
	if *restartDelay > 0 {
		lcfg.RestartDelay = time.Duration(*restartDelay * float64(time.Second))
	}

	if *service {
		os.Exit(runServiceMode(serviceRun{
			backend: *backend, sched: *schedName, params: params, gen: gen, cfg: cfg, live: lcfg,
			wl: *wl, lambda: *lambda, seed: *seed, reps: *reps, asJSON: *asJSON,
			arrival: *arrival, duration: *serviceDur, epoch: *epochFlag,
			maxQueue: *maxQueue, interactive: *interactive,
			sloBatch: *sloBatch, sloInteractive: *sloInter, overloadP95: *overloadP95,
			mpl:      *mpl,
			capacity: *capacity, capLo: *capLo, capHi: *capHi, capTol: *capTol,
			serveAddr: *serveAddr, linger: *serveLinger,
		}))
	}

	if *compare {
		out, err := batchsched.SimVsLiveReport(*seed, *txns)
		exitOn(1, err)
		fmt.Print(out)
		return
	}

	switch *backend {
	case "sim":
	case "live":
		batch := batchsched.GenerateBatch(gen, *seed, *txns)
		var (
			sum batchsched.Summary
			err error
		)
		if *serveAddr != "" {
			sum, err = runLiveTelemetry(lcfg, *schedName, params, batch, *serveAddr, *serveLinger, *check)
		} else {
			run := batchsched.RunLiveBatch
			if *check {
				run = batchsched.RunLiveChecked
			}
			sum, err = run(lcfg, *schedName, params, batch)
		}
		exitOn(1, err)
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			exitOn(1, enc.Encode(sum))
			return
		}
		fmt.Printf("backend          live (%d nodes, %d rows/object, pace %v)\n",
			lcfg.NumNodes, lcfg.RowsPerObject, lcfg.PacePerObject)
		fmt.Printf("scheduler        %s\n", *schedName)
		fmt.Printf("workload         %s closed batch of %d (numfiles=%d, dd=%d)\n", *wl, *txns, *numFiles, *dd)
		fmt.Printf("completions      %d of %d submitted\n", sum.Completions, *txns)
		fmt.Printf("makespan         %.3f s wall  (throughput %.1f TPS)\n", sum.Window.Seconds(), sum.TPS)
		fmt.Printf("mean resp. time  %.3f s (p50 %.3f, p90 %.3f, max %.3f)\n",
			sum.MeanRT.Seconds(), sum.P50RT.Seconds(), sum.P90RT.Seconds(), sum.MaxRT.Seconds())
		fmt.Printf("blocks %d  delays %d  admission rejects %d  restarts %d\n",
			sum.Blocks, sum.Delays, sum.AdmissionRejects, sum.Restarts)
		if *check {
			fmt.Println("serializability  OK")
		}
		return
	default:
		exitOn(2, fmt.Errorf("unknown backend %q (want sim or live)", *backend))
	}

	// One replication per seed, each carrying every recorder asked for:
	// -check verifies its history, and with -reps 1 the same run writes
	// -trace and the observability outputs. -progress instead keeps the
	// engine's own execution stats and the wall clock for the report below.
	out := outputs{
		trace: *traceFile, chrome: *traceOut, metrics: *metricsOut, audit: *auditOut, report: *reportOut,
		interval: batchsched.Time(*metricsInterval * float64(batchsched.Millisecond)),
		title:    fmt.Sprintf("%s %s lambda=%g seed=%d", *schedName, *wl, *lambda, *seed),
	}
	var st batchsched.RunStats
	run := func(seed int64) (batchsched.Summary, error) {
		return recordedRun(cfg, *schedName, params, gen, seed, *check, out)
	}
	if *progress {
		run = func(seed int64) (batchsched.Summary, error) {
			one, stOne, err := batchsched.RunWithStats(cfg, *schedName, params, gen, seed)
			st.Events += stOne.Events
			return one, err
		}
	}
	start := time.Now()
	sum, ci, err := metrics.Replicate(*seed, *reps, run)
	wall := time.Since(start)
	exitOn(1, err)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(1, enc.Encode(sum))
		return
	}
	if *traceFile != "" {
		// A traced run reports the trace in place of the summary.
		fmt.Printf("trace written to %s (completions=%d, tps=%.3f)\n", *traceFile, sum.Completions, sum.TPS)
		if *check {
			fmt.Println("serializability  OK")
		}
		return
	}
	fmt.Printf("scheduler        %s\n", *schedName)
	fmt.Printf("workload         %s (numfiles=%d, dd=%d, sigma=%g)\n", *wl, cfg.NumFiles, cfg.DD, *sigma)
	fmt.Printf("arrival rate     %.3f TPS over %.0fs x %d rep(s)\n", *lambda, cfg.Duration.Seconds(), *reps)
	fmt.Printf("completions      %d of %d arrivals\n", sum.Completions, sum.Arrivals)
	fmt.Printf("throughput       %.3f TPS\n", sum.TPS)
	if *reps > 1 {
		fmt.Printf("mean resp. time  %.1f ± %.1f s (95%% CI over %d reps; p50 %.1f, p90 %.1f, max %.1f)\n",
			sum.MeanRT.Seconds(), ci.MeanRT.Seconds(), *reps,
			sum.P50RT.Seconds(), sum.P90RT.Seconds(), sum.MaxRT.Seconds())
	} else {
		fmt.Printf("mean resp. time  %.1f s (p50 %.1f, p90 %.1f, max %.1f)\n",
			sum.MeanRT.Seconds(), sum.P50RT.Seconds(), sum.P90RT.Seconds(), sum.MaxRT.Seconds())
	}
	fmt.Printf("DPN utilization  %.1f%%   CN utilization %.1f%%\n",
		100*sum.DPNUtilization, 100*sum.CNUtilization)
	fmt.Printf("blocks %d  delays %d  admission rejects %d  restarts %d\n",
		sum.Blocks, sum.Delays, sum.AdmissionRejects, sum.Restarts)
	if cfg.Faults.Enabled() {
		fmt.Printf("faults           crashes %d (aborts %d)  stragglers %d  msg lost %d (retries %d, aborts %d)\n",
			sum.Crashes, sum.CrashAborts, sum.StragglerEpisodes, sum.MsgLost, sum.MsgRetries, sum.MsgAborts)
		fmt.Printf("availability     %.2f%%  degraded %.0fs (%.3f TPS inside)\n",
			100*sum.Availability(), sum.DegradedTime.Seconds(), sum.DegradedTPS)
	}
	if *progress {
		evPerSec := 0.0
		if wall > 0 {
			evPerSec = float64(st.Events) / wall.Seconds()
		}
		fmt.Printf("engine           %d events in %.3fs wall (%.0f events/sec)\n",
			st.Events, wall.Seconds(), evPerSec)
	}
	if *check {
		fmt.Println("serializability  OK")
	}
}

// exitOn ends the process with code and one batchsim: line when err is set.
func exitOn(code int, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
		os.Exit(code)
	}
}
