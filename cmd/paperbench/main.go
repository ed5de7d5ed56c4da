// Command paperbench regenerates the tables and figures of Ohmori et al.
// (ICDE 1991) from the simulator, printing side-by-side comparisons with
// the paper's numbers where the paper prints them.
//
// Examples:
//
//	paperbench -exp table2            # one artifact at full scale
//	paperbench -exp all               # everything (about a minute on two cores)
//	paperbench -exp fig10 -quick      # scaled-down smoke run (~seconds)
//	paperbench -exp table3 -reps 3    # average 3 seeds per point
//	paperbench -ablations -quick      # the design-choice ablation studies
//
// Each study's stderr line reports its wall time and how many replications
// it simulated and how many the replication memo served; the ablations go
// through the memo too, so a configuration two studies share is simulated
// once. The root tests TestArtifactsGolden and
// TestAblationsGolden pin every artifact and every ablation byte for byte
// (testdata/, 60-second windows, seed 4).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"batchsched"
	"batchsched/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "artifact id ("+strings.Join(batchsched.ArtifactIDs(), ", ")+") or 'all'")
		ablations = flag.Bool("ablations", false, "run the design-choice ablation studies instead of the paper artifacts")
		chart     = flag.Bool("chart", false, "also render figure artifacts as ASCII charts")
		quick     = flag.Bool("quick", false, "scaled-down run: 200s windows, coarse solver")
		duration  = flag.Float64("duration", 0, "override simulated seconds per run (0 = paper's 2000)")
		reps      = flag.Int("reps", 1, "replications per point")
		seed      = flag.Int64("seed", 1, "base random seed")
		tol       = flag.Float64("tol", 0, "bisection tolerance on lambda (0 = 0.01)")
	)
	flag.Parse()
	if err := validateFlags(*duration, *tol, *reps); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}

	o := batchsched.Options{Reps: *reps, Seed: *seed, SolverTol: *tol}
	if *duration > 0 {
		o.Duration = batchsched.Time(*duration * float64(batchsched.Second))
	}
	if *quick {
		if o.Duration == 0 {
			o.Duration = 200 * batchsched.Second
		}
		if o.SolverTol == 0 {
			o.SolverTol = 0.05
		}
	}

	if *ablations {
		for _, a := range experiments.Ablations {
			fmt.Fprintf(os.Stderr, "== running %s: %s\n", a.ID, a.Title)
			timed(a.ID, func() { fmt.Println(a.Run(o).String()) })
		}
		return
	}

	ids := batchsched.ArtifactIDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		a, ok := experiments.FindArtifact(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "paperbench: unknown artifact %q (want one of %v or 'all')\n",
				id, batchsched.ArtifactIDs())
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "== regenerating %s: %s\n", a.ID, a.Title)
		timed(a.ID, func() {
			tbl := a.Run(o)
			fmt.Println(tbl.String())
			if *chart && strings.HasPrefix(a.ID, "fig") {
				if c := tbl.Chart(tbl.Header[0], "", 0); c != nil {
					c.Width, c.Height = 72, 22
					fmt.Println(c.String())
				}
			}
		})
	}
}

// validateFlags rejects flag values that would otherwise run something other
// than what was asked: a negative or non-finite -duration (0 means the
// paper's window), a negative or non-finite -tol (0 means 0.01; below 0 every
// solve would bisect to float resolution), and -reps below 1.
func validateFlags(duration, tol float64, reps int) error {
	switch {
	case !(duration >= 0) || math.IsInf(duration, 1):
		return fmt.Errorf("-duration must be a finite number of seconds >= 0 (0 = paper's 2000), got %g", duration)
	case !(tol >= 0) || math.IsInf(tol, 1):
		return fmt.Errorf("-tol must be finite and >= 0 (0 = 0.01), got %g", tol)
	case reps < 1:
		return fmt.Errorf("-reps must be at least 1, got %d", reps)
	}
	return nil
}

// timed runs one artifact and reports on stderr its wall time and how many
// replications it simulated and how many the replication memo served.
func timed(id string, run func()) {
	start, before := time.Now(), experiments.SimCounts()
	run()
	after := experiments.SimCounts()
	fmt.Fprintf(os.Stderr, "   (%s in %s: %d simulated, %d reused)\n\n", id,
		time.Since(start).Round(time.Millisecond),
		after.Simulated-before.Simulated, after.Reused-before.Reused)
}
