package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced pass: what a user of the
// workload waits on and pays for.
var endToEnd = []metricDef{
	{"wall_s", "s"},      // wall time of one rep
	{"cpu_s", "s"},       // CPU time of one rep, all threads
	{"max_rss_mb", "MB"}, // peak resident set of a child, set-up included
	{"setup_s", "s"},     // child start to the first timed call
}

// perLayer are the metrics of the traced pass. A layer the workload never
// enters reports 0. None is a time, because a time would read 0 on every
// run of such a workload; shares of the rep wall take their place.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sched.request.calls_per_commit", "count"},
		{"sched.request.self_frac", "frac"},
		{"sched.admit.calls_per_commit", "count"},
		{"sched.admit.accept_ratio", "ratio"},
		{"sched.admit.self_frac", "frac"},
		{"sched.commit.self_frac", "frac"},
		{"sched.block_ratio", "ratio"},
		{"sched.delay_ratio", "ratio"},
		{"workload.self_frac", "frac"},
		{"machine.self_frac", "frac"},
		{"sim.events_per_commit", "count"},
		{"live.self_frac", "frac"},
		{"live.cn_busy_frac", "frac"},
		{"live.dpn_busy_frac", "frac"},
		{"admit.epochs_per_commit", "count"},
		{"admit.queue_depth_p99", "count"},
		{"admit.shed_frac", "frac"},
	}
	for _, l := range profileLayers {
		defs = append(defs, metricDef{l + ".cpu_frac", "frac"})
	}
	for _, id := range artifactIDs {
		defs = append(defs, metricDef{"experiments." + id + ".wall_frac", "frac"})
	}
	return append(defs,
		metricDef{"obs.overhead_ratio", "ratio"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.gc_cpu_frac", "frac"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// stat is one metric's distribution over a pass's children.
type stat struct {
	Value float64 `json:"value"` // median
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func statOf(xs []float64, unit string) stat {
	q1, q2, q3 := quartiles(xs)
	return stat{Value: q2, Q1: q1, Q3: q3, N: len(xs), Unit: unit}
}

// outcome is one workload's result over one or both passes.
type outcome struct {
	Procs     int             `json:"gomaxprocs"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Problems  []string        `json:"problems,omitempty"`
	Digests   []string        `json:"digests"`
	Children  map[mode]int    `json:"children"`
	Metrics   map[string]stat `json:"metrics"`
	// Layers splits the traced wall into the timed layers plus the
	// remainder; Profile splits it by the CPU profile.
	Layers  []layerRow `json:"layers,omitempty"`
	Profile []layerRow `json:"profile,omitempty"`
}

type layerRow struct {
	Layer   string  `json:"layer"`
	Seconds float64 `json:"seconds"`
}

// spawn runs one child process to completion.
func spawn(w *workload, m mode, seed int64, scale float64) childResult {
	res := childResult{Mode: m}
	exe, err := os.Executable()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	cmd := exec.Command(exe, childArg, "-workload", w.name, "-mode", string(m),
		"-seed", strconv.FormatInt(seed, 10), "-scale", strconv.FormatFloat(scale, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		res.Err = err.Error()
		return res
	}
	var setup float64
	var report []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if sc.Text() == childReady {
			setup = time.Since(start).Seconds()
			continue
		}
		report = slices.Clone(sc.Bytes())
	}
	waitErr := cmd.Wait()
	switch {
	case waitErr != nil:
		res.Err = fmt.Sprintf("%s %s child: %v", w.name, m, waitErr)
	case json.Unmarshal(report, &res) != nil:
		res.Err = fmt.Sprintf("%s %s child: unreadable report %q", w.name, m, report)
	}
	res.SetupS = setup
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res
}

// modesOf lists the child kinds a pass cycles through for w.
func modesOf(w *workload, traced bool) []mode {
	switch {
	case !traced:
		return []mode{modeBare}
	case w.backend == "machine":
		return []mode{modeBare, modeTraced, modeObserved}
	}
	return []mode{modeBare, modeTraced}
}

// measure runs one pass over ws: a verification child per workload, then
// rounds of one fresh child per workload, reversing the workload order every
// round, until seconds per workload have passed and every child kind has run
// at least twice (three bare children in an untraced pass).
func measure(ws []*workload, seed int64, seconds, scale float64, traced bool) map[string][]childResult {
	results := make(map[string][]childResult)
	for _, w := range ws {
		results[w.name] = append(results[w.name], spawn(w, modeVerify, seed, scale))
	}
	minRounds := 3
	for _, w := range ws {
		minRounds = max(minRounds, 2*len(modesOf(w, traced)))
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(len(ws)) * float64(time.Second)))
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		order := slices.Clone(ws)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			modes := modesOf(w, traced)
			results[w.name] = append(results[w.name], spawn(w, modes[round%len(modes)], seed, scale))
		}
	}
	return results
}

// summarize folds one pass's children into an outcome.
func summarize(w *workload, children []childResult, traced bool) *outcome {
	o := &outcome{Procs: w.procs, Children: map[mode]int{}, Metrics: map[string]stat{}}
	byMode := map[mode][]childResult{}
	for _, c := range children {
		o.Children[c.Mode]++
		byMode[c.Mode] = append(byMode[c.Mode], c)
		o.Attempted += max(c.Rep.Units, 1)
		o.Failed += c.Rep.Failed
		o.Problems = append(o.Problems, c.Rep.Problems...)
		if c.Err != "" {
			o.Failed += max(c.Rep.Units, 1) - c.Rep.Failed
			o.Problems = append(o.Problems, c.Err)
			continue
		}
		if c.Mode == modeVerify {
			continue
		}
		// Every rep of every mode must produce the first rep's outputs.
		if !slices.Contains(o.Digests, c.Rep.Digest) {
			o.Digests = append(o.Digests, c.Rep.Digest)
		}
		if c.Rep.Digest != o.Digests[0] {
			o.Failed += c.Rep.Units - c.Rep.Failed
			o.Problems = append(o.Problems, fmt.Sprintf("%s rep digest %.12s differs from %.12s", c.Mode, c.Rep.Digest, o.Digests[0]))
		}
	}
	o.Correct = o.Failed == 0 && o.Attempted > 0

	col := func(m mode, f func(childResult) float64) []float64 {
		var xs []float64
		for _, c := range byMode[m] {
			if c.Err == "" {
				xs = append(xs, f(c))
			}
		}
		return xs
	}
	wall := func(c childResult) float64 { return c.WallS }
	if !traced {
		get := map[string]func(childResult) float64{
			"wall_s":     wall,
			"cpu_s":      func(c childResult) float64 { return c.CPUS },
			"max_rss_mb": func(c childResult) float64 { return c.MaxRSSMB },
			"setup_s":    func(c childResult) float64 { return c.SetupS },
		}
		for _, d := range endToEnd {
			o.Metrics[d.name] = statOf(col(modeBare, get[d.name]), d.unit)
		}
		return o
	}

	for _, d := range perLayer {
		var xs []float64
		for _, c := range children {
			if v, ok := c.Layer[d.name]; ok && c.Err == "" {
				xs = append(xs, v)
			}
		}
		o.Metrics[d.name] = statOf(xs, d.unit)
	}
	_, bare, _ := quartiles(col(modeBare, wall))
	ratio := func(m mode) stat {
		if bare == 0 {
			return stat{Unit: "ratio"}
		}
		return statOf(col(m, func(c childResult) float64 { return c.WallS / bare }), "ratio")
	}
	o.Metrics["trace.overhead_ratio"] = ratio(modeTraced)
	if w.backend == "machine" {
		o.Metrics["obs.overhead_ratio"] = ratio(modeObserved)
	}
	_, tracedWall, _ := quartiles(col(modeTraced, wall))
	o.Layers, o.Profile = layerTables(w, o.Metrics, tracedWall)
	return o
}

// layerTables splits the median traced wall into layers. The timed rows
// are medians taken separately, so their sum differs from the wall by the
// spread between children; the profile rows are shares of the wall.
func layerTables(w *workload, ms map[string]stat, wall float64) (layers, profile []layerRow) {
	for _, l := range profileLayers {
		profile = append(profile, layerRow{l, ms[l+".cpu_frac"].Value * wall})
	}
	if w.backend == "" {
		var sum float64
		for _, id := range artifactIDs {
			s := ms["experiments."+id+".wall_frac"].Value * wall
			layers = append(layers, layerRow{"experiments." + id, s})
			sum += s
		}
		return append(layers, layerRow{"other", max(wall-sum, 0)}), profile
	}
	for _, l := range []string{"sched.request", "sched.admit", "sched.commit", "workload", w.backend} {
		layers = append(layers, layerRow{l, ms[l+".self_frac"].Value * wall})
	}
	return layers, profile
}
