// Command bench is the repository's end-to-end benchmark. It runs four
// workloads, each rep in a fresh child process, checks their outputs, and
// reports end-to-end metrics from untraced reps and per-layer metrics from
// a traced pass that times each layer's public interface from outside.
//
// One workload, one pass (the form BENCHMARK.json names):
//
//	go run ./bench -workload batch-scan -seed 1 -seconds 20 -trace 0
//
// Every workload, both passes, full results to a file; then compare two
// result files against the bounds in BENCHMARK.json:
//
//	go run ./bench -seed 1 -out A.json
//	go run ./bench -compare A.json B.json
//
// See bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resultFile is the full result that -out writes and -compare reads.
type resultFile struct {
	Host      hostInfo            `json:"host"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Scale     float64             `json:"scale"`
	Workloads map[string]*outcome `json:"workloads"`
}

type hostInfo struct {
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Revision  string `json:"revision"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload; default: every workload, both passes")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time per workload and pass")
	trace := fs.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics")
	out := fs.String("out", "", "write the full result JSON to this file")
	scale := fs.Float64("scale", 1, "work per rep relative to the defined workloads")
	cmp := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments (want -seconds >= 0, -scale > 0, -trace 0 or 1, no positional arguments)")
		return 2
	}
	ws := workloads
	passes := []bool{false, true}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws, passes = []*workload{w}, []bool{*trace == 1}
	}

	res := resultFile{Seed: *seed, Seconds: *seconds, Scale: *scale, Workloads: map[string]*outcome{}}
	for _, traced := range passes {
		children := measure(ws, *seed, *seconds, *scale, traced)
		for _, w := range ws {
			o := summarize(w, children[w.name], traced)
			if prev := res.Workloads[w.name]; prev != nil {
				prev.merge(o)
			} else {
				res.Workloads[w.name] = o
			}
		}
	}
	for _, w := range ws {
		printOutcome(stdout, w.name, res.Workloads[w.name])
	}
	if *out != "" {
		res.Host = hostInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Revision: gitRevision()}
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	ok := true
	for _, o := range res.Workloads {
		ok = ok && o.Correct
	}
	if len(ws) == 1 {
		if err := printLine(stdout, res.Workloads[ws[0].name], passes[0]); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// merge folds a second pass into o. The passes must agree on the outputs.
func (o *outcome) merge(p *outcome) {
	o.Attempted += p.Attempted
	o.Failed += p.Failed
	o.Problems = append(o.Problems, p.Problems...)
	for _, d := range p.Digests {
		if !slices.Contains(o.Digests, d) {
			o.Digests = append(o.Digests, d)
			o.Failed++
			o.Problems = append(o.Problems, fmt.Sprintf("digest %.12s differs between passes", d))
		}
	}
	for m, n := range p.Children {
		o.Children[m] += n
	}
	for k, v := range p.Metrics {
		o.Metrics[k] = v
	}
	if p.Layers != nil {
		o.Layers, o.Profile = p.Layers, p.Profile
	}
	o.Correct = o.Correct && p.Correct && o.Failed == 0
}

func printOutcome(w io.Writer, name string, o *outcome) {
	fmt.Fprintf(w, "%s: gomaxprocs %d, children %v, attempted %d, failed %d\n", name, o.Procs, o.Children, o.Attempted, o.Failed)
	for _, d := range o.Digests {
		fmt.Fprintf(w, "  digest %s\n", d)
	}
	for _, p := range o.Problems {
		fmt.Fprintf(w, "  FAILED %s\n", p)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if s, ok := o.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %12.6g %-5s  q1 %.6g  q3 %.6g  n %d\n", d.name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
			}
		}
	}
	for _, tbl := range []struct {
		title string
		rows  []layerRow
	}{{"timed layers", o.Layers}, {"CPU profile", o.Profile}} {
		if len(tbl.rows) == 0 {
			continue
		}
		var sum float64
		fmt.Fprintf(w, "  traced wall by %s:\n", tbl.title)
		for _, r := range tbl.rows {
			fmt.Fprintf(w, "    %-24s %9.4f s\n", r.Layer, r.Seconds)
			sum += r.Seconds
		}
		fmt.Fprintf(w, "    %-24s %9.4f s\n", "sum", sum)
	}
}

// printLine prints the one-line result: every end-to-end metric for an
// untraced pass, every per-layer metric for a traced one.
func printLine(w io.Writer, o *outcome, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		ms[d.name] = value{o.Metrics[d.name].Value, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
