package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// spec is the part of BENCHMARK.json that judges a comparison.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare prints one row per workload and end-to-end metric of result files
// a and b, judged against the metric's bound in BENCHMARK.json (read from
// the working directory): "worse" when b's median is worse than a's by more
// than the bound, "unresolved" when either side's interquartile range is
// wider than the bound, and "outputs differ" when the digests differ. It
// returns 1 if any row is one of these.
func compare(pathA, pathB string, stdout, stderr io.Writer) int {
	var sp spec
	var a, b resultFile
	for _, f := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &sp}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	for n := range b.Workloads {
		if a.Workloads[n] == nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	const format = "%-13s %-11s %12s %12s %8s  %s\n"
	fmt.Fprintf(stdout, format, "workload", "metric", "A", "B", "change", "verdict")
	bad := 0
	row := func(workload, metric, va, vb, change, verdict string) {
		fmt.Fprintf(stdout, format, workload, metric, va, vb, change, verdict)
		if verdict != "ok" && verdict != "better" {
			bad++
		}
	}
	for _, n := range names {
		oa, ob := a.Workloads[n], b.Workloads[n]
		if oa == nil || ob == nil {
			row(n, "", "", "", "", "missing on one side")
			continue
		}
		if !slices.Equal(sortedCopy(oa.Digests), sortedCopy(ob.Digests)) {
			row(n, "digests", "", "", "", "outputs differ")
		}
		for _, m := range sp.EndToEnd {
			sa, okA := oa.Metrics[m.Name]
			sb, okB := ob.Metrics[m.Name]
			if !okA || !okB || sa.Value == 0 {
				row(n, m.Name, "", "", "", "missing on one side")
				continue
			}
			change := (sb.Value - sa.Value) / sa.Value
			loss := change // how much worse b is, as a share of a
			if m.Better == "higher" {
				loss = -change
			}
			verdict := "ok"
			switch {
			case loss > m.Bound:
				verdict = "worse"
			case spread(sa) > m.Bound || spread(sb) > m.Bound:
				verdict = "unresolved"
			case loss < -m.Bound:
				verdict = "better"
			}
			row(n, m.Name, fmt.Sprintf("%.4g", sa.Value), fmt.Sprintf("%.4g", sb.Value), fmt.Sprintf("%+.1f%%", 100*change), verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// spread is a stat's interquartile range as a share of its median.
func spread(s stat) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

func sortedCopy(xs []string) []string {
	c := slices.Clone(xs)
	slices.Sort(c)
	return c
}
