package main

import (
	"errors"
	"fmt"
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
func validateTelemetryFlags(serveAddr, sliLedger, backend string, compare bool) error {
	if serveAddr != "" {
		if compare {
			return errors.New("-serve is incompatible with -compare (it interleaves many short runs)")
		}
		if backend != "live" {
			return fmt.Errorf("-serve requires -backend live: the %q backend runs on the virtual clock, not in wall time", backend)
		}
	}
	if sliLedger != "" && compare {
		return errors.New("-sli-ledger is incompatible with -compare")
	}
	return nil
}
