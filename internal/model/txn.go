// Package model defines the batch-transaction model of Section 2 of the
// paper: a batch is a sequential list of file-scanning steps, each reading or
// writing one file under a file-granularity S or X lock held to commit, with
// a cost measured in "objects" (one object = one bulk-I/O unit, e.g. a disk
// cylinder). Transactions pre-declare their full step sequence and per-step
// I/O demands ("access declarations"); the declared costs may differ from the
// actual costs when the Experiment-3 estimation-error model is in effect.
package model

import (
	"fmt"
	"slices"
	"strings"

	"batchsched/internal/sim"
)

// FileID identifies a file (the locking granule). Files are the unit of both
// locking and placement.
type FileID int

// Mode is a lock mode.
type Mode int

const (
	// S is a shared (read) lock.
	S Mode = iota
	// X is an exclusive (write) lock.
	X
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == X {
		return "X"
	}
	return "S"
}

// Compatible reports whether two locks of modes m and o may be held on the
// same file by different transactions at the same time.
func (m Mode) Compatible(o Mode) bool { return m == S && o == S }

// Step is one file-scanning operation of a batch.
type Step struct {
	// File is the file scanned by this step.
	File FileID
	// Write reports whether the step semantically writes the file (used by
	// the optimistic scheduler's read/write sets and by the serializability
	// checker). A read step may still request an X lock (LockMode) as in
	// Experiment 1.
	Write bool
	// LockMode is the lock the step requests on File.
	LockMode Mode
	// Cost is the actual I/O demand in objects at DD=1 (C0 in the paper).
	Cost float64
	// DeclaredCost is the I/O demand the transaction declares to the
	// scheduler (C in the paper). Equal to Cost unless an estimation-error
	// model perturbed it.
	DeclaredCost float64
}

// String renders the step in the pattern mini-language, e.g. "Xr(3:1)".
func (s Step) String() string {
	op := "r"
	if s.Write {
		op = "w"
	}
	prefix := ""
	if s.LockMode == X && !s.Write {
		prefix = "X"
	}
	if s.LockMode == S && s.Write {
		prefix = "S" // never sensible, but render faithfully
	}
	return fmt.Sprintf("%s%s(%d:%g)", prefix, op, s.File, s.Cost)
}

// Status is the lifecycle state of a transaction.
type Status int

const (
	// Pending: arrived but not yet admitted by the scheduler.
	Pending Status = iota
	// Active: admitted; executing (or waiting on a lock between steps).
	Active
	// Committed: all steps done and commitment finished.
	Committed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Active:
		return "active"
	case Committed:
		return "committed"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Txn is one batch transaction: its declaration plus the runtime state the
// machine model advances. Scheduler implementations read the declaration and
// StepIndex; they must not mutate steps.
type Txn struct {
	// ID is a unique, monotonically increasing identifier.
	ID int64
	// Steps is the declared sequence of file-scanning operations.
	Steps []Step
	// Arrival is the virtual time the transaction arrived at the control
	// node (first arrival; unchanged by optimistic restarts).
	Arrival sim.Time

	// StepIndex is the index of the step currently being requested or
	// executed; len(Steps) once every step has finished.
	StepIndex int
	// Status is the lifecycle state.
	Status Status
	// Restarts counts optimistic aborts (always 0 under the lock-based
	// schedulers, which never roll back).
	Restarts int
	// AdmissionTries counts scheduler admission rejections (GOW chain-form
	// failures, LOW K-conflict refusals, ASL lock-unavailability waits).
	AdmissionTries int

	// Lazily computed caches over the (immutable) declaration. Valid
	// because Steps never change after construction.
	needFiles []FileID // LockNeedSorted: parallel slices sorted by file
	needModes []Mode
	readSet   map[FileID]bool
	writeSet  map[FileID]bool
}

// NewTxn builds a transaction from steps; declared costs default to the
// actual costs when left zero... they must be set by the caller. Steps are
// copied.
func NewTxn(id int64, arrival sim.Time, steps []Step) *Txn {
	cp := make([]Step, len(steps))
	copy(cp, steps)
	return &Txn{ID: id, Steps: cp, Arrival: arrival}
}

// String renders the transaction's declared pattern.
func (t *Txn) String() string {
	parts := make([]string, len(t.Steps))
	for i, s := range t.Steps {
		parts[i] = s.String()
	}
	return fmt.Sprintf("T%d: %s", t.ID, strings.Join(parts, "->"))
}

// Done reports whether all steps have completed.
func (t *Txn) Done() bool { return t.StepIndex >= len(t.Steps) }

// CurrentStep returns the step at StepIndex. It panics when Done.
func (t *Txn) CurrentStep() Step { return t.Steps[t.StepIndex] }

// TotalCost returns the sum of actual step costs in objects.
func (t *Txn) TotalCost() float64 {
	var sum float64
	for _, s := range t.Steps {
		sum += s.Cost
	}
	return sum
}

// DeclaredRemaining returns the sum of declared costs of steps from index
// `from` (inclusive) to the end — the WTPG "remaining I/O demand" quantity.
func (t *Txn) DeclaredRemaining(from int) float64 {
	var sum float64
	for i := from; i < len(t.Steps); i++ {
		if i < 0 {
			continue
		}
		sum += t.Steps[i].DeclaredCost
	}
	return sum
}

// LockNeedSorted returns the strongest lock mode the transaction's
// declaration requests on each file it touches (X dominates S), as parallel
// slices sorted ascending by file ID: allocation-free, deterministic
// iteration and binary-search lookup. The slices are a cache shared across
// calls — callers must not modify them.
func (t *Txn) LockNeedSorted() ([]FileID, []Mode) {
	if t.needFiles == nil {
		t.buildNeed()
	}
	return t.needFiles, t.needModes
}

// buildNeed fills the LockNeedSorted cache from Steps.
func (t *Txn) buildNeed() {
	files := make([]FileID, 0, len(t.Steps))
	modes := make([]Mode, 0, len(t.Steps))
	for _, s := range t.Steps {
		i, ok := slices.BinarySearch(files, s.File)
		switch {
		case !ok:
			files = slices.Insert(files, i, s.File)
			modes = slices.Insert(modes, i, s.LockMode)
		case s.LockMode == X:
			modes[i] = X
		}
	}
	t.needFiles, t.needModes = files, modes
}

// NeedMode returns the strongest declared lock mode on f, if the
// declaration touches f at all (a binary search over LockNeedSorted).
func (t *Txn) NeedMode(f FileID) (Mode, bool) {
	files, modes := t.LockNeedSorted()
	if i, ok := slices.BinarySearch(files, f); ok {
		return modes[i], true
	}
	return 0, false
}

// ReadSet returns the files the transaction semantically reads. The
// returned map is a cache shared across calls — callers must not modify it.
func (t *Txn) ReadSet() map[FileID]bool {
	if t.readSet == nil {
		set := make(map[FileID]bool)
		for _, s := range t.Steps {
			if !s.Write {
				set[s.File] = true
			}
		}
		t.readSet = set
	}
	return t.readSet
}

// WriteSet returns the files the transaction semantically writes. The
// returned map is a cache shared across calls — callers must not modify it.
func (t *Txn) WriteSet() map[FileID]bool {
	if t.writeSet == nil {
		set := make(map[FileID]bool)
		for _, s := range t.Steps {
			if s.Write {
				set[s.File] = true
			}
		}
		t.writeSet = set
	}
	return t.writeSet
}

// FirstConflictStep returns the index of the earliest step of `of` that
// requests a lock conflicting with any declared access of `with`, and whether
// such a step exists. This is the step at which `of` would be blocked by
// `with`, the anchor of the WTPG weight w(with -> of).
func FirstConflictStep(of, with *Txn) (int, bool) {
	for i, s := range of.Steps {
		if m, ok := with.NeedMode(s.File); ok && !s.LockMode.Compatible(m) {
			return i, true
		}
	}
	return 0, false
}

// ConflictWeight returns the WTPG weight w(with -> of): assuming `of` is
// blocked by `with` at its first conflicting step and `with` has just
// committed, the declared I/O demand (in objects) `of` must still pay before
// its own commitment. Returns 0 and false when the two do not conflict.
func ConflictWeight(of, with *Txn) (float64, bool) {
	i, ok := FirstConflictStep(of, with)
	if !ok {
		return 0, false
	}
	return of.DeclaredRemaining(i), true
}
