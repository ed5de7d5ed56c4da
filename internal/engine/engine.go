// Package engine holds what the two execution backends share: the
// backend contract, file placement, the decision log of differential
// tests, and the control node itself (cn.go, cnservice.go). The schedulers
// (package sched) speak a pure decision protocol — Admit, Request
// (grant/block/delay/abort), Validate, Committed, Aborted — with no notion
// of how time passes or where cohorts run. The control-node core drives that
// protocol: admission with the MPL guard and the park queue, lock requests
// and the wait queues, step dispatch, commit, restart after delay, and the
// service-mode admission epoch, all on one FCFS job queue. A backend
// supplies a Host — a clock, a way to serve a job's CPU time, the
// data-processing nodes and a timer — and emits a metrics.Summary.
//
// Two backends exist:
//
//   - machine.Machine — the paper's virtual-clock discrete-event simulator
//     (single-threaded, deterministic, virtual time).
//   - live.Backend — real concurrent execution: one goroutine per DPN over
//     an in-memory partitioned store, Go channels for CN<->DPN messaging,
//     and the wall clock (goroutine-parallel, timing nondeterministic).
//
// Both run the same CN core, so they drive the scheduler through the same
// sequence of protocol calls for the same order of completions, which is
// what makes differential testing between them meaningful (DESIGN.md §12).
package engine

import (
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/sim"
)

// Clock reads the backend's notion of now. The simulator returns virtual
// time; the live backend returns wall time elapsed since Run started,
// expressed in the same sim.Time microsecond unit so metrics are comparable.
type Clock interface {
	Now() sim.Time
}

// Observer receives execution events, for history recording and invariant
// checks. machine.Observer and the live backend's observer hook are both
// this type.
type Observer interface {
	// StepDone fires when a step's cohorts have all completed.
	StepDone(t *model.Txn, step int, at sim.Time)
	// Committed fires when a transaction commits.
	Committed(t *model.Txn, at sim.Time)
	// Restarted fires when a rollback (optimistic validation failure or
	// deadlock abort) discards the transaction's current attempt.
	Restarted(t *model.Txn, at sim.Time)
}

// FaultObserver is an optional extension of Observer: observers that also
// implement it (trace.Writer does) additionally receive fault-injection
// events. Checked by type assertion so other observers keep working.
type FaultObserver interface {
	// Fault fires for a machine-level fault transition: kind is "crash",
	// "restore", "slow", "slowend" or "msgloss"; node is the affected
	// data-processing node.
	Fault(kind string, node int, at sim.Time)
	// AbortedTxn fires when a fault aborts a transaction; reason is
	// "crash" (lost cohorts) or "timeout" (message retries exhausted).
	// The control node also fires the regular Restarted for these aborts.
	AbortedTxn(t *model.Txn, reason string, at sim.Time)
	// Retried fires when the control node re-dispatches a step after a
	// message timeout; attempt is 1-based.
	Retried(t *model.Txn, attempt int, at sim.Time)
}

// Generator produces the declared steps of successive transactions
// (implemented by package workload).
type Generator interface {
	Steps(rng *sim.RNG) []model.Step
}

// Backend is one execution substrate for the scheduler core. Submit
// transactions, then call Run exactly once; Run drives everything to
// completion (the simulator to its horizon, the live backend to batch
// drain) and returns the summary.
type Backend interface {
	Clock
	// Submit injects a transaction at the current time. For closed-batch
	// runs, call it once per transaction before Run.
	Submit(steps []model.Step) *model.Txn
	// SetObserver installs an execution observer (history recorder, trace
	// writer). Call before Run.
	SetObserver(Observer)
	// Run executes to completion and returns the digested metrics.
	Run() metrics.Summary
	// InFlight reports how many submitted transactions have not committed.
	InFlight() int
}
