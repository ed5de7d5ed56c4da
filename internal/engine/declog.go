package engine

import (
	"fmt"

	"batchsched/internal/lock"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// DecisionOp classifies one scheduler-protocol call.
type DecisionOp int

const (
	// OpAdmit is a Scheduler.Admit call.
	OpAdmit DecisionOp = iota
	// OpRequest is a Scheduler.Request call.
	OpRequest
	// OpValidate is a Scheduler.Validate call.
	OpValidate
	// OpCommitted is a Scheduler.Committed call.
	OpCommitted
	// OpAborted is a Scheduler.Aborted call.
	OpAborted
)

// String names the op.
func (op DecisionOp) String() string {
	switch op {
	case OpAdmit:
		return "admit"
	case OpRequest:
		return "request"
	case OpValidate:
		return "validate"
	case OpCommitted:
		return "committed"
	case OpAborted:
		return "aborted"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// DecisionEntry is one scheduler-protocol call and its result, with no
// timestamps: it captures the decision sequence a backend drove the
// scheduler through, independent of when each call happened. Two backends
// agree on a workload exactly when their entry sequences agree.
type DecisionEntry struct {
	// Op is the protocol call.
	Op DecisionOp
	// Txn is the transaction the call was about.
	Txn int64
	// Step is the transaction's StepIndex at call time.
	Step int
	// File and Mode identify the requested lock (requests only; -1/"").
	File int
	Mode string
	// Result is "ok"/"reject" for admits and validates, the decision name
	// for requests, and "" for committed/aborted notifications.
	Result string
}

// String renders the entry compactly, e.g. "request T3/1 X(f5) -> grant".
func (e DecisionEntry) String() string {
	switch e.Op {
	case OpRequest:
		return fmt.Sprintf("request T%d/%d %s(f%d) -> %s", e.Txn, e.Step, e.Mode, e.File, e.Result)
	case OpAdmit, OpValidate:
		return fmt.Sprintf("%s T%d -> %s", e.Op, e.Txn, e.Result)
	default:
		return fmt.Sprintf("%s T%d", e.Op, e.Txn)
	}
}

// DecisionLog wraps a scheduler and records every protocol call, for
// differential sim-vs-live comparison. It forwards audit and load-probe
// injection and the lock table when the wrapped scheduler has them, so
// wrapping does not change behavior.
type DecisionLog struct {
	inner   sched.Scheduler
	audit   *obs.Audit
	entries []DecisionEntry
	marks   []int // audit length after each entry (aligns the two logs)
}

// NewDecisionLog wraps s.
func NewDecisionLog(s sched.Scheduler) *DecisionLog {
	return &DecisionLog{inner: s}
}

// Entries returns the recorded calls in order.
func (l *DecisionLog) Entries() []DecisionEntry { return l.entries }

// AuditMarks returns, for each recorded entry, how many audit entries the
// wrapped scheduler had emitted once that call returned (all zero when no
// audit was injected). AuditMarks[i-1] is thus the audit-log prefix length
// generated by the first i protocol calls — how differential tests cut the
// audit comparison at the deterministic decision prefix.
func (l *DecisionLog) AuditMarks() []int { return l.marks }

func (l *DecisionLog) push(e DecisionEntry) {
	l.entries = append(l.entries, e)
	l.marks = append(l.marks, len(l.audit.Entries()))
}

// Name implements sched.Scheduler.
func (l *DecisionLog) Name() string { return l.inner.Name() }

// Admit implements sched.Scheduler.
func (l *DecisionLog) Admit(t *model.Txn) (bool, sim.Time) {
	ok, cpu := l.inner.Admit(t)
	l.push(DecisionEntry{
		Op: OpAdmit, Txn: t.ID, Step: t.StepIndex, File: -1, Result: okStr(ok),
	})
	return ok, cpu
}

// Request implements sched.Scheduler.
func (l *DecisionLog) Request(t *model.Txn) sched.Outcome {
	st := t.CurrentStep()
	out := l.inner.Request(t)
	l.push(DecisionEntry{
		Op: OpRequest, Txn: t.ID, Step: t.StepIndex,
		File: int(st.File), Mode: st.LockMode.String(),
		Result: out.Decision.String(),
	})
	return out
}

// Validate implements sched.Scheduler.
func (l *DecisionLog) Validate(t *model.Txn) (bool, sim.Time) {
	ok, cpu := l.inner.Validate(t)
	l.push(DecisionEntry{
		Op: OpValidate, Txn: t.ID, Step: t.StepIndex, File: -1, Result: okStr(ok),
	})
	return ok, cpu
}

// Committed implements sched.Scheduler.
func (l *DecisionLog) Committed(t *model.Txn) {
	l.push(DecisionEntry{Op: OpCommitted, Txn: t.ID, Step: t.StepIndex, File: -1})
	l.inner.Committed(t)
}

// Aborted implements sched.Scheduler.
func (l *DecisionLog) Aborted(t *model.Txn) {
	l.push(DecisionEntry{Op: OpAborted, Txn: t.ID, Step: t.StepIndex, File: -1})
	l.inner.Aborted(t)
}

// SetAudit implements sched.Audited by forwarding when the wrapped
// scheduler is audited (safe to call unconditionally).
func (l *DecisionLog) SetAudit(a *obs.Audit) {
	l.audit = a
	if au, ok := l.inner.(sched.Audited); ok {
		au.SetAudit(a)
	}
}

// SetLoadProbe implements sched.LoadAware by forwarding when the wrapped
// scheduler is load-aware (safe to call unconditionally).
func (l *DecisionLog) SetLoadProbe(probe func(f model.FileID) float64) {
	if la, ok := l.inner.(sched.LoadAware); ok {
		la.SetLoadProbe(probe)
	}
}

// Locks exposes the wrapped scheduler's lock table, nil when it keeps none,
// so the live guard-violation rule and wait reports see through the wrapper.
func (l *DecisionLog) Locks() *lock.Table {
	if lt, ok := l.inner.(interface{ Locks() *lock.Table }); ok {
		return lt.Locks()
	}
	return nil
}

func okStr(ok bool) string {
	if ok {
		return "ok"
	}
	return "reject"
}

// DeterministicPrefix returns the length of the leading portion of the
// entry sequence guaranteed identical across backends for the same
// submitted batch: everything up to (excluding) the first entry whose
// scheduling can depend on a data-processing-node completion. Admissions
// and step-0 requests in the initial control-node sweep — including the
// grant/wake cascades they trigger — are ordered purely by the CN's FIFO
// queue discipline, which both backends implement identically. The first
// Validate, Committed, Aborted, or step>0 Request marks the point where a
// cohort completion (whose arrival order is timing-dependent under live
// execution) has fed back into scheduling.
func DeterministicPrefix(entries []DecisionEntry) int {
	for i, e := range entries {
		switch e.Op {
		case OpValidate, OpCommitted, OpAborted:
			return i
		case OpRequest:
			if e.Step > 0 {
				return i
			}
		}
	}
	return len(entries)
}
