package main

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// validateRunFlags rejects flag values the run cannot use, so a bad
// configuration exits with a message instead of panicking deep inside a
// workload constructor or the summary averaging.
func validateRunFlags(wl string, numFiles int, heavytail float64, txns, reps int) error {
	if reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", reps)
	}
	if txns < 1 {
		return fmt.Errorf("-txns must be at least 1, got %d", txns)
	}
	if wl == "exp1" && numFiles < 2 {
		return fmt.Errorf("-numfiles must be at least 2 for the exp1 workload (each transaction touches two files), got %d", numFiles)
	}
	if heavytail != 0 && !(heavytail > 1) {
		return fmt.Errorf("-heavytail must be 0 (off) or above 1 (a finite-mean Pareto tail), got %g", heavytail)
	}
	return nil
}

// validateTelemetryFlags rejects telemetry flags on execution modes whose
// clock the endpoint would misrepresent: -serve scrapes wall-clock
// streaming instruments, so it requires the live backend and a single real
// run — the virtual-clock simulator finishes in milliseconds of wall time
// and -compare interleaves many runs, so a scrape of either would lie.
func validateTelemetryFlags(serveAddr, backend string, compare bool) error {
	if serveAddr != "" {
		if compare {
			return errors.New("-serve is incompatible with -compare (it interleaves many short runs)")
		}
		if backend != "live" {
			return fmt.Errorf("-serve requires -backend live: the %q backend runs on the virtual clock, not in wall time", backend)
		}
	}
	return nil
}

// modeFlags are the flags that choose what one invocation runs and what it
// records.
type modeFlags struct {
	backend, sched                    string
	service, compare, check, progress bool
	reps                              int
	faults                            bool // any fault-injection flag
	crashes, msgLoss                  bool // -mtbf above 0, -msgloss above 0
	trace                             bool // -trace
	obsOut                            bool // any of -trace-out, -metrics-out, -audit, -report
	lambda                            float64
	capacity, heavytail               bool
	set                               map[string]bool // every flag given on the command line
}

// The flags each run mode ignores; validateModeFlags rejects any of them
// given on the command line, so no flag is dropped silently. -compare runs
// its own sim-vs-live grid and takes only compareTakes.
var (
	simIgnores = []string{"txns", "pace", "rows", "serve-linger", "arrival", "service-duration", "epoch",
		"max-queue", "interactive", "slo-batch", "slo-interactive", "overload-p95", "capacity", "cap-lo", "cap-hi", "cap-tol"}
	liveBatchIgnores = []string{"lambda", "duration", "warmup", "metrics-interval", "mttr", "msgtimeout", "msgretries",
		"arrival", "service-duration", "epoch", "max-queue", "interactive", "slo-batch",
		"slo-interactive", "overload-p95", "capacity", "cap-lo", "cap-hi", "cap-tol"}
	simServiceIgnores = []string{"txns", "pace", "rows", "serve-linger", "service-duration", "metrics-interval"}
	// -capacity bisects over its own rates on the default machine, with no
	// faults, warm-up or cost error.
	capacityIgnores = []string{"lambda", "numnodes", "warmup", "sigma", "k", "restartdelay", "mtbf", "mttr", "straggler",
		"msgloss", "msgdelay", "msgtimeout", "msgretries"}
	liveServiceIgnores = []string{"txns", "duration", "warmup", "metrics-interval", "mttr", "msgtimeout", "msgretries", "cap-lo", "cap-hi", "cap-tol"}
	compareTakes       = []string{"compare", "seed", "txns", "cpuprofile", "memprofile"}
)

// prerequisites are the flags a mode uses only together with another flag
// or a scheduler; validateModeFlags rejects each one given without what it
// needs.
var prerequisites = []struct {
	flag, needs string
	met         func(modeFlags) bool
}{
	{"k", "-sched LOW or LOW-LB (K is LOW's conflict bound)",
		func(f modeFlags) bool { return f.sched == "LOW" || f.sched == "LOW-LB" }},
	{"mpl", "-sched C2PL+M (its admission limit) or -service (the admission window)",
		func(f modeFlags) bool { return f.sched == "C2PL+M" || f.service }},
	{"serve-linger", "-serve", func(f modeFlags) bool { return f.set["serve"] }},
	{"mttr", "-mtbf above 0 (it is the mean outage per crash)", func(f modeFlags) bool { return f.crashes }},
	{"msgtimeout", "-msgloss above 0 (it times out lost messages)", func(f modeFlags) bool { return f.msgLoss }},
	{"msgretries", "-msgloss above 0 (it re-sends lost messages)", func(f modeFlags) bool { return f.msgLoss }},
	{"metrics-interval", "-metrics-out or -report (the outputs that carry sampled metrics)",
		func(f modeFlags) bool { return f.set["metrics-out"] || f.set["report"] }},
}

// validateModeFlags rejects flag combinations one invocation cannot honour
// together, so no flag is dropped silently. -check, -trace and the
// observability outputs combine on one simulator run.
func validateModeFlags(f modeFlags) error {
	oneRun := f.trace || f.obsOut
	switch {
	case f.progress && (f.check || oneRun):
		return errors.New("-progress is incompatible with -check, -trace and the observability outputs")
	case f.compare && (f.check || oneRun || f.progress || f.reps > 1 || f.faults):
		return errors.New("-compare runs its own sim-vs-live grid; it takes no -check, -progress, -reps, fault flags, -trace or observability outputs")
	case f.service && (oneRun || f.progress):
		return errors.New("-service records no -trace, observability outputs or -progress")
	case f.service && f.compare:
		return errors.New("-service is incompatible with -compare")
	case f.service && f.check:
		return errors.New("-service does not support -check (evictions abort transactions mid-history)")
	case f.service && !f.capacity && !(f.lambda > 0):
		return errors.New("-service needs -lambda > 0 (the offered arrival rate)")
	case f.service && f.capacity && f.backend != "sim":
		return errors.New("-capacity bisects many runs and requires -backend sim")
	case f.service && f.capacity && f.heavytail:
		return errors.New("-capacity does not support -heavytail (the capacity point is workload-flag driven)")
	case f.reps > 1 && (oneRun || f.backend == "live"):
		return fmt.Errorf("-trace, the observability outputs and -backend live describe one run; -reps must be 1, got %d", f.reps)
	case f.backend == "live" && (oneRun || f.progress || f.faults):
		return errors.New("-backend live takes no -trace, observability outputs, -progress or fault flags; they need -backend sim")
	}
	mode, ignores := "a simulator run", simIgnores
	switch {
	case f.compare:
		mode, ignores = "-compare", nil
		for name := range f.set {
			if !slices.Contains(compareTakes, name) {
				ignores = append(ignores, name)
			}
		}
		sort.Strings(ignores)
	case f.service && f.backend == "live":
		mode, ignores = "a live service run", liveServiceIgnores
	case f.service:
		mode, ignores = "a simulator service run", append(slices.Clip(simServiceIgnores), "cap-lo", "cap-hi", "cap-tol")
		if f.capacity {
			mode, ignores = "-capacity", append(slices.Clip(simServiceIgnores), capacityIgnores...)
		}
	case f.backend == "live":
		mode, ignores = "a closed live batch", liveBatchIgnores
	}
	for _, name := range ignores {
		if f.set[name] {
			return fmt.Errorf("%s takes no -%s", mode, name)
		}
	}
	for _, p := range prerequisites {
		if f.set[p.flag] && !p.met(f) {
			return fmt.Errorf("-%s needs %s", p.flag, p.needs)
		}
	}
	return nil
}
