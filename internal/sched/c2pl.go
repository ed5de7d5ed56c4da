package sched

import (
	"batchsched/internal/lock"
	"batchsched/internal/model"
	"batchsched/internal/sim"
)

// c2pl is Cautious Two-Phase Locking (Nishio et al.): strict 2PL that
// predicts deadlock from the transactions' declared access lists and grants
// a lock request q iff q is not blocked by a current holder and granting it
// cannot lead to a deadlock; a request that would deadlock is delayed
// instead. It therefore has neither deadlocks nor rollbacks, but it does
// suffer chains of blocking. With mpl > 0 it becomes C2PL+M, the paper's
// variant that caps the number of running transactions.
//
// The deadlock prediction is a cycle test on the needs-versus-holdings
// digraph: an edge u -> v when u declares a not-yet-satisfied need on a
// file v currently holds in an incompatible mode. Because access lists are
// declared up front and holdings only grow until commit, refusing any grant
// that would close a cycle through the grantee makes deadlock impossible
// (every hold-and-wait cycle would contain a final grant that completed it,
// and that grant is refused). This is the "(unweighted) WTPG" deadlock
// predictor of the paper with the cost ddtime per test.
type c2pl struct {
	p      Params
	mpl    int
	locks  *lock.Table
	active map[int64]*activeTxn
	name   string

	// The deadlock test's DFS stack, reused across calls, and its pass
	// number: a node is visited in this pass when its seen stamp equals
	// pass, so the visited set needs neither clearing nor a map of its own.
	stack []int64
	pass  uint64
}

// activeTxn is an admitted transaction with its deadlock-DFS visit stamp.
type activeTxn struct {
	t    *model.Txn
	seen uint64
}

// NewC2PL returns a cautious two-phase locking scheduler with an unlimited
// multiprogramming level.
func NewC2PL(p Params) Scheduler {
	return &c2pl{p: p, locks: lock.NewTable(), active: make(map[int64]*activeTxn), name: "C2PL"}
}

// NewC2PLM returns C2PL+M: cautious two-phase locking that admits at most
// mpl concurrent transactions (mpl <= 0 means unlimited).
func NewC2PLM(p Params, mpl int) Scheduler {
	return &c2pl{p: p, mpl: mpl, locks: lock.NewTable(), active: make(map[int64]*activeTxn), name: "C2PL+M"}
}

func (s *c2pl) Name() string { return s.name }

func (s *c2pl) Admit(t *model.Txn) (bool, sim.Time) {
	if s.mpl > 0 && len(s.active) >= s.mpl {
		return false, 0
	}
	s.active[t.ID] = &activeTxn{t: t}
	return true, 0
}

func (s *c2pl) Request(t *model.Txn) Outcome {
	if holdsSufficient(s.locks, t) {
		return Outcome{Decision: Grant}
	}
	st := t.CurrentStep()
	if !s.locks.CanGrant(t.ID, st.File, st.LockMode) {
		return Outcome{Decision: Block}
	}
	cpu := s.p.DDTime
	if s.wouldDeadlock(t, st.File, st.LockMode) {
		return Outcome{Decision: Delay, CPU: cpu}
	}
	s.locks.Grant(t.ID, st.File, st.LockMode)
	return Outcome{Decision: Grant, CPU: cpu}
}

// wouldDeadlock reports whether granting t mode m on file f closes a cycle
// in the needs-versus-holdings digraph. Any new cycle must pass through t
// (the grant only adds a holding of t), so a DFS from t back to t suffices.
func (s *c2pl) wouldDeadlock(t *model.Txn, f model.FileID, m model.Mode) bool {
	s.pass++
	s.stack = s.stack[:0]
	s.pushWaitsFor(t, t, f, m)
	for len(s.stack) > 0 {
		v := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if v == t.ID {
			return true
		}
		if a, ok := s.active[v]; ok && a.seen != s.pass {
			a.seen = s.pass
			s.pushWaitsFor(a.t, t, f, m)
		}
	}
	return false
}

// pushWaitsFor pushes u's successors in the digraph as it would be after
// granting t mode m on f: every holder whose mode is incompatible with a
// need of u, and t itself where u's need on f conflicts with m.
//
// Request asks only when t holds no lock covering (f, m) and CanGrant(t, f,
// m) holds, and the table's holders are pairwise compatible. Under those
// conditions a need u already covers has no incompatible other holder, so
// it needs no test of its own, and t's mode on f after the grant is m, which
// the first check compares with u's need.
func (s *c2pl) pushWaitsFor(u, t *model.Txn, f model.FileID, m model.Mode) {
	files, needs := u.LockNeedSorted()
	for i, g := range files {
		need := needs[i]
		if g == f && u.ID != t.ID && !m.Compatible(need) {
			s.stack = append(s.stack, t.ID)
		}
		ids, modes := s.locks.HolderModes(g)
		for k, h := range ids {
			if h != u.ID && !modes[k].Compatible(need) {
				s.stack = append(s.stack, h)
			}
		}
	}
}

func (s *c2pl) Validate(*model.Txn) (bool, sim.Time) { return true, 0 }

func (s *c2pl) Committed(t *model.Txn) {
	delete(s.active, t.ID)
	s.locks.ReleaseAll(t.ID)
}

// Aborted rolls the transaction out of the scheduler state: it leaves the
// active set and releases every lock it held. C2PL itself never aborts a
// transaction (no deadlocks, no rollbacks); this is the fault-induced
// rollback path.
func (s *c2pl) Aborted(t *model.Txn) {
	delete(s.active, t.ID)
	s.locks.ReleaseAll(t.ID)
}

// Locks exposes the lock table for invariant checks in tests.
func (s *c2pl) Locks() *lock.Table { return s.locks }

// Active returns the number of admitted, uncommitted transactions.
func (s *c2pl) Active() int { return len(s.active) }
