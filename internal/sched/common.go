package sched

import (
	"fmt"

	"batchsched/internal/lock"
	"batchsched/internal/model"
	"batchsched/internal/wtpg"
)

// holdsSufficient reports whether t already holds a lock on its current
// step's file strong enough for the step's mode, in which case the request
// is trivially granted (locks are held to commit, so a later step on the
// same file needs no new decision).
func holdsSufficient(locks *lock.Table, t *model.Txn) bool {
	st := t.CurrentStep()
	held, ok := locks.Holds(t.ID, st.File)
	return ok && (held == model.X || st.LockMode == model.S)
}

// seedHolderOrder records, for a freshly admitted transaction t, the
// serialization orders already implied by the lock table: every current
// holder h of a file whose held mode conflicts with t's declared need on
// that file must precede t. Without this, a grant made before t arrived
// would be invisible to the WTPG and the deadlock prediction of C2PL, GOW
// and LOW would have blind spots.
//
// The orientations all point into the fresh sink t, so they can never close
// a cycle; a failure here is a programming error and panics.
func seedHolderOrder(g *wtpg.Graph, locks *lock.Table, t *model.Txn) {
	files, modes := t.LockNeedSorted()
	var pairs [][2]int64
	for i, f := range files {
		ids, held := locks.HolderModes(f)
		for j, h := range ids {
			if h != t.ID && g.Has(h) && !held[j].Compatible(modes[i]) {
				pairs = append(pairs, [2]int64{h, t.ID})
			}
		}
	}
	if err := g.OrientAll(pairs); err != nil {
		panic(fmt.Sprintf("sched: seeding holder order for T%d failed: %v", t.ID, err))
	}
}

// conflictsOn reports u's declared need on file f when u is a transaction
// other than t and that need is incompatible with mode m: whether u belongs
// to the set C(q) of the paper's Fig. 7 for t's access (f, m). Ranging it
// over g.Txns() walks C(q) in the graph's deterministic insertion order.
func conflictsOn(u, t *model.Txn, f model.FileID, m model.Mode) (model.Mode, bool) {
	if u.ID == t.ID {
		return 0, false
	}
	um, ok := u.NeedMode(f)
	return um, ok && !um.Compatible(m)
}

// countConflicters counts C(q) for t's access (f, m) over the graph's
// transactions, stopping once the count exceeds limit.
func countConflicters(g *wtpg.Graph, t *model.Txn, f model.FileID, m model.Mode, limit int) int {
	n := 0
	for _, u := range g.Txns() {
		if _, ok := conflictsOn(u, t, f, m); ok {
			if n++; n > limit {
				break
			}
		}
	}
	return n
}
