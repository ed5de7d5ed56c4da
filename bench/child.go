package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"batchsched/internal/stats"
)

// childArg, as the first argument, runs the process as one child: set up a
// workload, print childReady, run one rep, print a childResult and exit.
const (
	childArg   = "-child"
	childReady = "ready"
)

// childResult is one child's report; the parent fills SetupS and MaxRSSMB.
type childResult struct {
	Mode  mode
	Rep   repOut
	WallS float64
	CPUS  float64
	// Layer holds the child's per-layer metric values.
	Layer    map[string]float64 `json:",omitempty"`
	SetupS   float64
	MaxRSSMB float64
	Err      string `json:",omitempty"`
}

func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	scale := fs.Float64("scale", 1, "work scale")
	m := fs.String("mode", string(modeBare), "bare, traced, observed or verify")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(w.procs)
	res, err := runChild(w, mode(*m), *seed, *scale, stdout)
	if err != nil {
		res.Err = err.Error()
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func runChild(w *workload, m mode, seed int64, scale float64, stdout io.Writer) (childResult, error) {
	res := childResult{Mode: m}
	if m == modeVerify {
		res.Rep = w.verify(seed, scale)
		return res, nil
	}
	rep, err := w.setup(seed, scale)
	if err != nil {
		return res, err
	}
	if _, err := fmt.Fprintln(stdout, childReady); err != nil {
		return res, err
	}

	var tr *tracer
	var prof bytes.Buffer
	if m == modeTraced {
		tr = &tracer{}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return res, err
		}
	}
	before := readRuntime()
	start := time.Now()
	res.Rep = rep(m, tr)
	wall := time.Since(start)
	after := readRuntime()
	if tr != nil {
		pprof.StopCPUProfile()
	}

	res.WallS = wall.Seconds()
	res.CPUS = after.cpu - before.cpu
	res.Layer = make(map[string]float64)
	switch m {
	case modeBare:
		res.Layer["go.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / 1e6
		if gc := after.gcCPU - before.gcCPU; gc > 0 {
			res.Layer["go.gc_cpu_frac"] = gc / (after.totalCPU - before.totalCPU)
		}
		for id, s := range res.Rep.ArtifactWallS {
			res.Layer["experiments."+id+".wall_frac"] = s / res.WallS
		}
		if res.Rep.Events > 0 && res.Rep.Commits > 0 {
			res.Layer["sim.events_per_commit"] = float64(res.Rep.Events) / float64(res.Rep.Commits)
		}
		if w.backend == "live" {
			res.Layer["live.cn_busy_frac"] = res.Rep.CNBusy
			res.Layer["live.dpn_busy_frac"] = res.Rep.DPNBusy
		}
	case modeTraced:
		samples, err := attributeProfile(prof.Bytes())
		if err != nil {
			return res, err
		}
		tracedLayers(res.Layer, w, tr, res.Rep.Commits, wall, samples)
	}
	return res, nil
}

// tracedLayers derives the traced pass's per-layer metrics of one rep.
func tracedLayers(out map[string]float64, w *workload, tr *tracer, commits int, wall time.Duration, samples map[string]int64) {
	var total int64
	for _, v := range samples {
		total += v
	}
	for _, l := range profileLayers {
		if total > 0 {
			out[l+".cpu_frac"] = float64(samples[l]) / float64(total)
		}
	}
	if w.backend == "" {
		return // the workload builds its own schedulers; only the profile sees them
	}
	perCommit := func(n int) float64 { return float64(n) / float64(max(commits, 1)) }
	perRequest := func(n int) float64 { return float64(n) / float64(max(tr.request.n, 1)) }
	frac := func(d time.Duration) float64 { return float64(d) / float64(wall) }
	out["sched.request.calls_per_commit"] = perCommit(tr.request.n)
	out["sched.request.self_frac"] = frac(tr.request.time)
	out["sched.admit.calls_per_commit"] = perCommit(tr.admit.n)
	out["sched.admit.accept_ratio"] = float64(tr.admitOK) / float64(max(tr.admit.n, 1))
	out["sched.admit.self_frac"] = frac(tr.admit.time)
	out["sched.commit.self_frac"] = frac(tr.commit.time)
	out["sched.block_ratio"] = perRequest(tr.blocks)
	out["sched.delay_ratio"] = perRequest(tr.delays)
	out["workload.self_frac"] = frac(tr.gen)
	out[w.backend+".self_frac"] = 1 - frac(tr.request.time+tr.admit.time+tr.commit.time+tr.gen)
	if len(tr.depths) > 0 {
		out["admit.epochs_per_commit"] = perCommit(len(tr.depths))
		out["admit.queue_depth_p99"] = stats.Quantile(tr.depths, 0.99)
		out["admit.shed_frac"] = float64(tr.sheds) / float64(max(tr.arrivals, 1))
	}
}

// runtimeSample is a snapshot of the process's CPU and allocation counters.
type runtimeSample struct {
	cpu             float64 // user+system CPU seconds, from getrusage
	allocBytes      uint64
	gcCPU, totalCPU float64 // runtime/metrics CPU-class estimates
}

func readRuntime() runtimeSample {
	var s runtimeSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	s.allocBytes = ms[0].Value.Uint64()
	s.gcCPU = ms[1].Value.Float64()
	s.totalCPU = ms[2].Value.Float64()
	return s
}
