// Package sched implements the six concurrency-control schedulers the paper
// evaluates:
//
//   - NODC  — no data contention: every lock granted (performance upper bound)
//   - ASL   — atomic static locking (conservative two-phase locking)
//   - C2PL  — cautious two-phase locking with WTPG-based deadlock prediction
//   - C2PL+M — C2PL with a multiprogramming-level admission limit
//   - OPT   — optimistic locking with commit-time backward validation
//   - GOW   — Globally-Optimized WTPG scheduler (chain-form constraint)
//   - LOW   — Locally-Optimized WTPG scheduler (K-conflict constraint)
//
// A scheduler makes three kinds of decisions for the control node: whether
// an arriving transaction may start (Admit), what to do with a lock request
// (Request), and whether a finishing transaction may commit (Validate —
// always true except for OPT). Every decision reports the control-node CPU
// time it consumed, using the paper's Table-1 cost parameters.
package sched

import (
	"fmt"

	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sim"
)

// Decision is the outcome of a lock request (paper Figs. 4 and 7).
type Decision int

const (
	// Grant: the lock is granted; the step may execute.
	Grant Decision = iota
	// Block: the request conflicts with a currently held lock; wait for the
	// holder to release (Phase 1 of GOW/LOW, plain blocking in C2PL).
	Block
	// Delay: the scheduler's policy refuses the request for now; resubmit
	// after the next scheduling event.
	Delay
	// Abort: the transaction must roll back and restart (OPT only).
	Abort
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Grant:
		return "grant"
	case Block:
		return "block"
	case Delay:
		return "delay"
	case Abort:
		return "abort"
	}
	return fmt.Sprintf("decision(%d)", int(d))
}

// Outcome is a decision plus the control-node CPU time spent reaching it.
type Outcome struct {
	Decision Decision
	CPU      sim.Time
}

// Scheduler is the concurrency-control policy consulted by the control node.
// Implementations are single-threaded (one per simulation run).
type Scheduler interface {
	// Name returns the paper's name for the scheduler.
	Name() string
	// Admit decides whether transaction t may start now. ok=false leaves t
	// pending; the control node retries on the next scheduling event. The
	// returned CPU is charged to the control node either way.
	Admit(t *model.Txn) (ok bool, cpu sim.Time)
	// Request processes t's lock request for its current step.
	Request(t *model.Txn) Outcome
	// Validate is consulted at commit point; ok=false means the transaction
	// must abort and restart (OPT certification failure).
	Validate(t *model.Txn) (ok bool, cpu sim.Time)
	// Committed tells the scheduler t has committed; locks are released and
	// bookkeeping dropped.
	Committed(t *model.Txn)
	// Aborted tells the scheduler t rolled back (after a failed Validate).
	Aborted(t *model.Txn)
}

// Audited is implemented by schedulers that can explain their lock-request
// decisions (GOW and LOW). The machine injects the observability layer's
// decision log when observation is enabled; with a nil *obs.Audit (or when
// SetAudit is never called) recording stays off and Request is unchanged.
type Audited interface {
	SetAudit(*obs.Audit)
}

// Params carries the concurrency-control cost and policy parameters
// (paper Table 1).
type Params struct {
	// DDTime is the CPU time of one deadlock-prediction test in C2PL.
	DDTime sim.Time
	// KWTPGTime is the CPU time of one E(q) evaluation in LOW.
	KWTPGTime sim.Time
	// ChainTime is the CPU time of computing the optimized serializable
	// order in GOW.
	ChainTime sim.Time
	// TopTime is the CPU time of GOW's chain-form admission test.
	TopTime sim.Time
	// K bounds the size of a conflicting-declaration set in LOW.
	K int
	// MPL is the admission limit of C2PL+M; 0 means unlimited.
	MPL int
	// GOWGreedy is an ablation knob: skip GOW's Phase-2 global optimization
	// and grant any request whose implied orientations are merely
	// non-contradictory (first-come orientation instead of the optimal W).
	GOWGreedy bool
}

// DefaultParams returns the values of the paper's Table 1 (K = 2 as used in
// all experiments; MPL unlimited).
func DefaultParams() Params {
	return Params{
		DDTime:    1 * sim.Millisecond,
		KWTPGTime: 10 * sim.Millisecond,
		ChainTime: 30 * sim.Millisecond,
		TopTime:   5 * sim.Millisecond,
		K:         2,
	}
}

// Names lists the scheduler names accepted by New: the paper's six (in the
// paper's order), the traditional strict-2PL baseline ("2PL") the paper's
// introduction dismisses, and LOW's load-balancing variant ("LOW-LB") its
// conclusion names as further work.
var Names = []string{"NODC", "ASL", "GOW", "LOW", "C2PL", "C2PL+M", "OPT", "2PL", "LOW-LB"}

// New builds a scheduler by its paper name. "C2PL+M" uses p.MPL as its
// admission limit (a value of 0 makes it plain C2PL).
func New(name string, p Params) (Scheduler, error) {
	switch name {
	case "NODC":
		return NewNODC(), nil
	case "ASL":
		return NewASL(), nil
	case "C2PL":
		return NewC2PL(p), nil
	case "C2PL+M":
		return NewC2PLM(p, p.MPL), nil
	case "OPT":
		return NewOPT(), nil
	case "2PL":
		return NewS2PL(p), nil
	case "GOW":
		return NewGOW(p), nil
	case "LOW":
		return NewLOW(p), nil
	case "LOW-LB":
		return NewLOWLB(p), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q (want one of %v)", name, Names)
	}
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(name string, p Params) Scheduler {
	s, err := New(name, p)
	if err != nil {
		panic(err)
	}
	return s
}
