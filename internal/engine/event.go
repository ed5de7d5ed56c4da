package engine

import (
	"batchsched/internal/model"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// EventKind names one control-node transition or scheduler call; the
// Event fields each kind sets are in parentheses.
type EventKind uint8

const (
	EvArrive     EventKind = iota // a transaction arrives at the CN
	EvAdmit                       // the admission test returned (OK)
	EvPark                        // a refused or MPL-capped admission parks
	EvStart                       // admitted: on to the first step
	EvRequest                     // a lock request was decided (Decision, CPU)
	EvWait                        // the request blocks or is policy-delayed
	EvExecute                     // the granted step starts at its DPNs
	EvStepDone                    // a step's completion was received (Step)
	EvCommitting                  // the last step is done: validate and commit
	EvValidate                    // validation returned (OK)
	EvCommit                      // the transaction committed
	EvAbort                       // the attempt was rolled back (Reason)
	EvEvict                       // overload control evicted a waiter
	EvShed                        // the admission service turned it away
	EvRetry                       // a step is re-sent after a lost message (Attempt)
	EvFault                       // a machine-level fault transition (Node, Fault)
	EvJobStart                    // a CN job starts its service (Op)
	EvJobEnd                      // the CN job in service ends
)

// Event is one transition of the control node, published right after the
// call or state change it reports. Observers read the transaction's state
// (StepIndex, Restarts, CurrentStep) as of that moment; an EvAbort or
// EvEvict still shows the rolled-back attempt's StepIndex.
type Event struct {
	Kind EventKind
	OK   bool       // admission or validation result
	At   sim.Time   // the host clock reading at the transition
	Txn  *model.Txn // nil for EvFault

	Decision sched.Decision // the scheduler's answer to a lock request
	CPU      sim.Time       // the request decision's CPU time
	Step     int            // the index of the completed step
	// Reason is "" for a deadlock victim or a failed validation, "crash" or
	// "timeout" for a fault.
	Reason  string
	Attempt int    // the 1-based re-dispatch number
	Node    int    // the data-processing node of a fault
	Fault   string // "crash", "restore", "slow", "slowend" or "msgloss"
	Op      string // the CN job's name: "cn:admit", "cn:request", ...
}

// CountsRestart reports whether the event restarts a transaction: a
// deadlock-victim decision, a failed validation (their rollback follows as
// an EvAbort with Reason ""), or a fault abort.
func (ev Event) CountsRestart() bool {
	switch ev.Kind {
	case EvRequest:
		return ev.Decision == sched.Abort
	case EvValidate:
		return !ev.OK
	case EvAbort:
		return ev.Reason != ""
	}
	return false
}

// Observer receives every event of a control node (CN.SetObserver), on the
// goroutine that drives the CN, in transition order. Events carry the
// transaction, never the CN's Exec wrapper, which is recycled once the
// transaction retires.
type Observer interface {
	Event(Event)
}
