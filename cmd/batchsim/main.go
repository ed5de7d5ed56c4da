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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"batchsched"
	"batchsched/internal/metrics"
)

func main() {
	var (
		schedName = flag.String("sched", "LOW", "scheduler: NODC, ASL, GOW, LOW, C2PL, C2PL+M, OPT")
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
		decisionW = flag.Int("decision-workers", 0, "GOW/LOW parallel decision engine: N>1 fans candidate scoring over N workers (results byte-identical; see DESIGN.md §17)")
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
		sliLedger   = flag.String("sli-ledger", "", "append one SLI ledger line (JSONL, see internal/obs/sli) for the run to this file")
		sloSpec     = flag.String("slo-spec", "", "JSON SLO spec file for -sli-ledger (empty = built-in default spec)")

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
		if err != nil {
			fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
			os.Exit(1)
		}
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

	// -progress reports the engine's own execution counters, which only the
	// plain replication path collects; the -check and observability paths
	// run the simulation through different entry points.
	if *progress && (*check || *traceOut != "" || *metricsOut != "" || *auditOut != "" || *reportOut != "") {
		fmt.Fprintln(os.Stderr, "batchsim: -progress is incompatible with -check and the observability outputs")
		os.Exit(2)
	}
	if err := validateTelemetryFlags(*serveAddr, *sliLedger, *backend, *compare); err != nil {
		fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
		os.Exit(2)
	}

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
			fmt.Fprintf(os.Stderr, "batchsim: bad -straggler %q (want mtbf/duration/factor, e.g. 200/20/3)\n", *straggler)
			os.Exit(2)
		}
		cfg.Faults.StragglerMTBF = batchsched.Time(smtbf * float64(batchsched.Second))
		cfg.Faults.StragglerDuration = batchsched.Time(sdur * float64(batchsched.Second))
		cfg.Faults.StragglerFactor = sfactor
	}
	if err := cfg.Faults.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
		os.Exit(2)
	}

	params := batchsched.DefaultParams()
	params.MPL = *mpl
	params.K = *k
	params.DecisionWorkers = *decisionW

	var gen batchsched.Generator
	switch *wl {
	case "exp1":
		gen = batchsched.NewExp1Workload(*numFiles)
	case "exp2":
		gen = batchsched.NewExp2Workload()
	default:
		fmt.Fprintf(os.Stderr, "batchsim: unknown workload %q (want exp1 or exp2)\n", *wl)
		os.Exit(2)
	}
	if *sigma > 0 {
		gen = batchsched.WithCostError(gen, *sigma)
	}
	if *heavytail > 0 {
		gen = batchsched.WithHeavyTail(gen, *heavytail)
	}

	if *service {
		os.Exit(runServiceMode(serviceRun{
			backend: *backend, sched: *schedName, params: params, gen: gen, cfg: cfg,
			wl: *wl, lambda: *lambda, seed: *seed, reps: *reps, asJSON: *asJSON,
			check: *check, compare: *compare, heavytail: *heavytail,
			numNodes: *numNodes, numFiles: *numFiles, dd: *dd, rows: *rows,
			pace: *pace, restartDelay: *restartDelay,
			arrival: *arrival, duration: *serviceDur, epoch: *epochFlag,
			maxQueue: *maxQueue, interactive: *interactive,
			sloBatch: *sloBatch, sloInteractive: *sloInter, overloadP95: *overloadP95,
			mpl:      *mpl,
			capacity: *capacity, capLo: *capLo, capHi: *capHi, capTol: *capTol,
			ledger: *sliLedger, specPath: *sloSpec,
			serveAddr: *serveAddr, linger: *serveLinger,
		}))
	}

	if *compare {
		out, err := batchsched.SimVsLiveReport(*seed, *txns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	switch *backend {
	case "sim":
	case "live":
		lcfg := batchsched.DefaultLiveConfig()
		lcfg.NumNodes = *numNodes
		lcfg.NumFiles = *numFiles
		lcfg.DD = *dd
		lcfg.MPL = *mpl
		if *rows > 0 {
			lcfg.RowsPerObject = *rows
		}
		lcfg.PacePerObject = *pace
		// A small jittered restart delay breaks plain-2PL abort/re-acquire
		// livelock on wall clocks; -restartdelay (seconds) overrides it.
		lcfg.RestartDelay = 2 * time.Millisecond
		lcfg.RestartJitter = true
		if *restartDelay > 0 {
			lcfg.RestartDelay = time.Duration(*restartDelay * float64(time.Second))
		}
		batch := batchsched.GenerateBatch(gen, *seed, *txns)
		var (
			sum batchsched.Summary
			err error
		)
		if *serveAddr != "" || *sliLedger != "" {
			sum, err = runLiveTelemetry(lcfg, *schedName, params, batch, telemetryOpts{
				serveAddr: *serveAddr, linger: *serveLinger,
				ledger: *sliLedger, specPath: *sloSpec,
				check: *check, wl: *wl, seed: *seed,
			})
		} else {
			run := batchsched.RunLiveBatch
			if *check {
				run = batchsched.RunLiveChecked
			}
			sum, err = run(lcfg, *schedName, params, batch)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(sum); err != nil {
				fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
				os.Exit(1)
			}
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
		fmt.Fprintf(os.Stderr, "batchsim: unknown backend %q (want sim or live)\n", *backend)
		os.Exit(2)
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		sum, err := batchsched.RunTraced(cfg, *schedName, params, gen, *seed, f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (completions=%d, tps=%.3f)\n", *traceFile, sum.Completions, sum.TPS)
		return
	}

	var (
		sum  batchsched.Summary
		ci   batchsched.CI
		err  error
		st   batchsched.RunStats
		wall time.Duration
	)
	if *traceOut != "" || *metricsOut != "" || *auditOut != "" || *reportOut != "" {
		// The observability exporters describe one run; replications and
		// -check are incompatible with them.
		ob := batchsched.NewObs()
		ob.SetSampleInterval(batchsched.Time(*metricsInterval * float64(batchsched.Millisecond)))
		sum, err = batchsched.RunObserved(cfg, *schedName, params, gen, *seed, ob)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
			os.Exit(1)
		}
		title := fmt.Sprintf("%s %s lambda=%g seed=%d", *schedName, *wl, *lambda, *seed)
		writeObs := func(path string, fn func(io.Writer) error) {
			if path == "" {
				return
			}
			f, ferr := os.Create(path)
			if ferr == nil {
				ferr = fn(f)
				if cerr := f.Close(); ferr == nil {
					ferr = cerr
				}
			}
			if ferr != nil {
				fmt.Fprintf(os.Stderr, "batchsim: %v\n", ferr)
				os.Exit(1)
			}
		}
		writeObs(*traceOut, ob.WriteChromeTrace)
		writeObs(*metricsOut, ob.WriteMetricsCSV)
		writeObs(*auditOut, ob.WriteAuditJSONL)
		writeObs(*reportOut, func(w io.Writer) error { return ob.WriteHTMLReport(w, title) })
	} else if *check {
		// Serializability verification runs per replication.
		var sums []batchsched.Summary
		for r := 0; r < *reps; r++ {
			one, cerr := batchsched.RunChecked(cfg, *schedName, params, gen, *seed+int64(r))
			if cerr != nil {
				fmt.Fprintf(os.Stderr, "batchsim: %v\n", cerr)
				os.Exit(1)
			}
			sums = append(sums, one)
		}
		sum, ci = metrics.AverageWithCI(sums)
	} else if *progress {
		// Same replication loop as RunReplicated, but keeping the engine's
		// own execution stats and the wall clock for the report below.
		start := time.Now()
		var sums []batchsched.Summary
		for r := 0; r < *reps; r++ {
			one, stOne, rerr := batchsched.RunWithStats(cfg, *schedName, params, gen, *seed+int64(r))
			if rerr != nil {
				fmt.Fprintf(os.Stderr, "batchsim: %v\n", rerr)
				os.Exit(1)
			}
			st.Events += stOne.Events
			sums = append(sums, one)
		}
		wall = time.Since(start)
		sum, ci = metrics.AverageWithCI(sums)
	} else {
		sum, ci, err = batchsched.RunReplicated(cfg, *schedName, params, gen, *seed, *reps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
			os.Exit(1)
		}
	}

	if *sliLedger != "" {
		if lerr := appendSimLedger(*sliLedger, *sloSpec, *schedName, *wl, *lambda, *seed, sum); lerr != nil {
			fmt.Fprintf(os.Stderr, "batchsim: %v\n", lerr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "batchsim: SLI ledger line appended to %s\n", *sliLedger)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintf(os.Stderr, "batchsim: %v\n", err)
			os.Exit(1)
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
