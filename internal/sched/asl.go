package sched

import (
	"fmt"

	"batchsched/internal/lock"
	"batchsched/internal/model"
	"batchsched/internal/sim"
)

// asl is Atomic Static Locking — conservative two-phase locking: a
// transaction acquires every lock it will ever need atomically at startup
// and starts only when all of them are available. It can never deadlock or
// roll back, and it never blocks mid-flight, but it refuses to start
// transactions whose lock sets overlap a running one.
type asl struct {
	locks *lock.Table
}

// NewASL returns an Atomic Static Locking scheduler.
func NewASL() Scheduler { return &asl{locks: lock.NewTable()} }

func (s *asl) Name() string { return "ASL" }

// Admit starts t only when its whole declared lock set is grantable at once.
func (s *asl) Admit(t *model.Txn) (bool, sim.Time) {
	files, modes := t.LockNeedSorted()
	if !s.locks.CanGrantAll(t.ID, files, modes) {
		return false, 0
	}
	s.locks.GrantAll(t.ID, files, modes)
	return true, 0
}

// Request is always a grant: every lock was taken at admission.
func (s *asl) Request(t *model.Txn) Outcome {
	if !holdsSufficient(s.locks, t) {
		panic(fmt.Sprintf("sched: ASL transaction T%d reached step %d without its lock", t.ID, t.StepIndex))
	}
	return Outcome{Decision: Grant}
}

func (s *asl) Validate(*model.Txn) (bool, sim.Time) { return true, 0 }

func (s *asl) Committed(t *model.Txn) { s.locks.ReleaseAll(t.ID) }

// Aborted releases the atomically acquired lock set. ASL itself never
// aborts a transaction; this is the fault-induced rollback path (node
// crash, message-retry exhaustion) — re-admission re-acquires the set.
func (s *asl) Aborted(t *model.Txn) { s.locks.ReleaseAll(t.ID) }

// Locks exposes the lock table for invariant checks in tests.
func (s *asl) Locks() *lock.Table { return s.locks }
