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
//	paperbench -grid exp1 -reps 5     # replicated Exp. 1 grid, mean ± 95% CI
//
// -grid runs one experiment's whole grid (exp1 .. exp4) with -reps
// replications per cell, each on its own seed substream of -seed, and
// prints one mean ± 95% CI row per cell.
//
// Each study's stderr line reports its wall time and how many replications
// it simulated and how many the replication memo served; the ablations and
// grids go through the memo too, so a configuration two studies share is
// simulated once. The root tests TestArtifactsGolden, TestAblationsGolden
// and TestGridsGolden pin every artifact, every ablation and every grid
// byte for byte (testdata/).
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
		grid      = flag.String("grid", "", "run a replicated paper grid instead of the artifacts: exp1, exp2, exp3 or exp4, -reps replications per cell")
		chart     = flag.Bool("chart", false, "also render figure artifacts as ASCII charts")
		quick     = flag.Bool("quick", false, "scaled-down run: 200s windows, coarse solver")
		duration  = flag.Float64("duration", 0, "override simulated seconds per run (0 = paper's 2000)")
		reps      = flag.Int("reps", 1, "replications per point")
		seed      = flag.Int64("seed", 1, "base random seed")
		tol       = flag.Float64("tol", 0, "bisection tolerance on lambda (0 = 0.01)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	err := validateFlags(runFlags{duration: *duration, tol: *tol, reps: *reps, exp: *exp, grid: *grid, ablations: *ablations, set: set})
	if err != nil {
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

	if set["grid"] {
		g, _ := experiments.PaperSpec(*grid, o)
		fmt.Fprintf(os.Stderr, "== running grid %s: %d cells x %d reps\n", g.Name, len(g.Points()), g.Base.Reps)
		timed(g.Name, func() { fmt.Println(experiments.RunGrid(g).String()) })
		return
	}
	if *ablations {
		for _, a := range experiments.Ablations {
			fmt.Fprintf(os.Stderr, "== running %s: %s\n", a.ID, a.Title)
			timed(a.ID, func() { fmt.Println(a.Run(o).String()) })
		}
		return
	}

	for _, id := range artifactIDs(*exp) {
		a, _ := experiments.FindArtifact(id)
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

// The flags each mode ignores; validateFlags rejects any of them given on
// the command line, so no flag is dropped silently.
var (
	ablationsIgnores = []string{"exp", "chart", "grid"}
	gridIgnores      = []string{"exp", "chart", "tol", "ablations"}
)

// artifactIDs lists the artifacts an -exp value names: every artifact for
// "all", else the comma-separated ids.
func artifactIDs(exp string) []string {
	if exp == "all" {
		return batchsched.ArtifactIDs()
	}
	ids := strings.Split(exp, ",")
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
	}
	return ids
}

// runFlags are the flags validateFlags checks: the values that need a
// range check and the mode, plus every flag given on the command line.
type runFlags struct {
	duration, tol float64
	reps          int
	exp, grid     string
	ablations     bool
	set           map[string]bool // the flag.Visit names
}

// validateFlags rejects flag values that would otherwise run something other
// than what was asked: a negative or non-finite -duration (0 means the
// paper's window), a negative or non-finite -tol (0 means 0.01; below 0 every
// solve would bisect to float resolution), -reps below 1, an unknown -grid
// or -exp id (every -exp id is checked before anything runs), and any flag
// given that the chosen mode ignores.
func validateFlags(f runFlags) error {
	switch {
	case !(f.duration >= 0) || math.IsInf(f.duration, 1):
		return fmt.Errorf("-duration must be a finite number of seconds >= 0 (0 = paper's 2000), got %g", f.duration)
	case !(f.tol >= 0) || math.IsInf(f.tol, 1):
		return fmt.Errorf("-tol must be finite and >= 0 (0 = 0.01), got %g", f.tol)
	case f.reps < 1:
		return fmt.Errorf("-reps must be at least 1, got %d", f.reps)
	}
	mode, ignores := "", []string(nil)
	switch {
	case f.set["grid"]:
		if _, ok := experiments.PaperSpec(f.grid, experiments.Options{}); !ok {
			return fmt.Errorf("unknown grid %q (want exp1, exp2, exp3 or exp4)", f.grid)
		}
		mode, ignores = "-grid", gridIgnores
	case f.ablations:
		mode, ignores = "-ablations", ablationsIgnores
	default:
		for _, id := range artifactIDs(f.exp) {
			if _, ok := experiments.FindArtifact(id); !ok {
				return fmt.Errorf("unknown artifact %q (want one of %v or 'all')", id, batchsched.ArtifactIDs())
			}
		}
	}
	for _, name := range ignores {
		if f.set[name] {
			return fmt.Errorf("%s takes no -%s", mode, name)
		}
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
