// Package engine holds what the two execution backends share: the host
// contract, file placement, the control node itself (cn.go, cnservice.go),
// its event stream (event.go) and two of the stream's observers — the
// observability recorder (obsrec.go) and the decision log of differential
// tests (declog.go). The schedulers
// (package sched) speak a pure decision protocol — Admit, Request
// (grant/block/delay/abort), Validate, Committed, Aborted — with no notion
// of how time passes or where cohorts run. The control-node core drives that
// protocol: admission with the MPL guard and the park queue, lock requests
// and the wait queues, step dispatch, commit, restart after delay, and the
// service-mode admission epoch, all on one FCFS job queue. A backend
// supplies a Host — a clock, a way to serve a job's CPU time, the
// data-processing nodes and a timer — and emits a metrics.Summary. The CN
// publishes every transition as one Event to the observers attached with
// CN.SetObserver.
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

import "batchsched/internal/sim"

// Clock reads the backend's notion of now. The simulator returns virtual
// time; the live backend returns wall time elapsed since Run started,
// expressed in the same sim.Time microsecond unit so metrics are comparable.
type Clock interface {
	Now() sim.Time
}
