package engine

import (
	"fmt"

	"batchsched/internal/obs"
)

// DecisionEntry is one scheduler-protocol call and its result, with no
// timestamps: it captures the decision sequence a backend drove the
// scheduler through, independent of when each call happened. Two backends
// agree on a workload exactly when their entry sequences agree.
type DecisionEntry struct {
	// Op is the call's event: EvAdmit, EvRequest, EvValidate, EvCommit, or
	// EvAbort for the release of an aborted or evicted attempt.
	Op   EventKind
	Txn  int64 // the transaction the call was about
	Step int   // its StepIndex at call time
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
	case EvRequest:
		return fmt.Sprintf("request T%d/%d %s(f%d) -> %s", e.Txn, e.Step, e.Mode, e.File, e.Result)
	case EvAdmit:
		return fmt.Sprintf("admit T%d -> %s", e.Txn, e.Result)
	case EvValidate:
		return fmt.Sprintf("validate T%d -> %s", e.Txn, e.Result)
	case EvCommit:
		return fmt.Sprintf("committed T%d", e.Txn)
	}
	return fmt.Sprintf("aborted T%d", e.Txn)
}

// DecisionLog is the observer that records every scheduler-protocol call
// the control node makes, for differential sim-vs-live comparison.
type DecisionLog struct {
	audit   *obs.Audit
	entries []DecisionEntry
	marks   []int // audit length after each entry (aligns the two logs)
}

// NewDecisionLog returns an empty log whose marks count entries of a, the
// audit the run's scheduler records into (nil leaves every mark zero).
// Attach it with SetObserver.
func NewDecisionLog(a *obs.Audit) *DecisionLog {
	return &DecisionLog{audit: a}
}

// Entries returns the recorded calls in order.
func (l *DecisionLog) Entries() []DecisionEntry { return l.entries }

// AuditMarks returns, for each recorded entry, how many audit entries the
// scheduler had emitted once that call returned (all zero without an
// audit). AuditMarks[i-1] is thus the audit-log prefix length generated by
// the first i protocol calls — how differential tests cut the audit
// comparison at the deterministic decision prefix.
func (l *DecisionLog) AuditMarks() []int { return l.marks }

// Event records the scheduler call an event reports: the admission test,
// a lock request, validation, the commit, and the release of an aborted or
// evicted attempt.
func (l *DecisionLog) Event(ev Event) {
	e := DecisionEntry{Op: ev.Kind, File: -1}
	switch ev.Kind {
	case EvAdmit, EvValidate:
		e.Result = "reject"
		if ev.OK {
			e.Result = "ok"
		}
	case EvRequest:
		st := ev.Txn.CurrentStep()
		e.File, e.Mode, e.Result = int(st.File), st.LockMode.String(), ev.Decision.String()
	case EvEvict:
		e.Op = EvAbort // the scheduler's Aborted call
	case EvCommit, EvAbort:
	default:
		return // not a scheduler call
	}
	e.Txn, e.Step = ev.Txn.ID, ev.Txn.StepIndex
	l.entries = append(l.entries, e)
	l.marks = append(l.marks, len(l.audit.Entries()))
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
		case EvValidate, EvCommit, EvAbort:
			return i
		case EvRequest:
			if e.Step > 0 {
				return i
			}
		}
	}
	return len(entries)
}
