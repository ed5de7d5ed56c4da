package sched

import (
	"fmt"

	"batchsched/internal/lock"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sim"
	"batchsched/internal/wtpg"
)

// gow is the Globally-Optimized WTPG scheduler (paper Fig. 4; "Chain-WTPG"
// in the authors' earlier work). It keeps the WTPG in chain form — each
// transaction conflicts only with adjacent nodes — which makes the full
// serializable order W with the shortest critical path computable in
// polynomial time. Lock requests are granted only when they are consistent
// with W, so chains of blocking are avoided globally.
type gow struct {
	p     Params
	locks *lock.Table
	graph *wtpg.Graph
	plan  wtpg.Plan // reused across requests (Phase 2 scratch)

	// audit, when set, records every lock-request decision; lastCP is the
	// critical path |W| of the previous audited plan (for the delta).
	audit  *obs.Audit
	lastCP float64
}

// NewGOW returns a Globally-Optimized WTPG scheduler.
func NewGOW(p Params) Scheduler {
	return &gow{p: p, locks: lock.NewTable(), graph: wtpg.New()}
}

func (s *gow) Name() string { return "GOW" }

// SetAudit implements Audited.
func (s *gow) SetAudit(a *obs.Audit) { s.audit = a }

// record appends one audited lock-request decision. pairs are the neighbor
// orientations the grant would determine (the candidate set); cp is the
// critical path |W| of the optimized order when one was computed
// (haveCP); the entry's CPDelta tracks |W| against the previous plan.
func (s *gow) record(t *model.Txn, d Decision, pairs [][2]int64, cp float64, haveCP bool, note string) {
	if s.audit == nil {
		return
	}
	st := t.CurrentStep()
	e := obs.AuditEntry{
		Scheduler: s.Name(), Txn: t.ID,
		File: int(st.File), Mode: st.LockMode.String(),
		Decision: d.String(), Note: note,
	}
	for _, pr := range pairs {
		e.Candidates = append(e.Candidates, pr[1])
	}
	if haveCP {
		e.EQ = cp
		e.CPDelta = cp - s.lastCP
		s.lastCP = cp
	}
	s.audit.Record(e)
}

// Admit is Phase 0: the chain-form test (cost: toptime). A transaction that
// would break chain form is not started; the control node retries it later.
func (s *gow) Admit(t *model.Txn) (bool, sim.Time) {
	if !s.graph.ChainFormAfterAdd(t) {
		return false, s.p.TopTime
	}
	s.graph.Add(t)
	seedHolderOrder(s.graph, s.locks, t)
	return true, s.p.TopTime
}

func (s *gow) Request(t *model.Txn) Outcome {
	if holdsSufficient(s.locks, t) {
		s.record(t, Grant, nil, 0, false, "holds sufficient lock")
		return Outcome{Decision: Grant}
	}
	st := t.CurrentStep()
	// Phase 1: blocked by a current holder.
	if !s.locks.CanGrant(t.ID, st.File, st.LockMode) {
		s.record(t, Block, nil, 0, false, "conflicting lock holder")
		return Outcome{Decision: Block}
	}
	if s.p.GOWGreedy {
		// Ablation: no global optimization — grant whenever the implied
		// orientations do not contradict the existing order.
		pairs, err := s.graph.GrantOrientations(t, st.File, st.LockMode)
		if err != nil {
			s.record(t, Delay, pairs, 0, false, err.Error())
			return Outcome{Decision: Delay, CPU: s.p.DDTime}
		}
		if err := s.graph.OrientAll(pairs); err != nil {
			s.record(t, Delay, pairs, 0, false, err.Error())
			return Outcome{Decision: Delay, CPU: s.p.DDTime}
		}
		s.locks.Grant(t.ID, st.File, st.LockMode)
		s.record(t, Grant, pairs, 0, false, "")
		return Outcome{Decision: Grant, CPU: s.p.DDTime}
	}
	// Phase 2: compute the globally optimized serializable order W
	// (cost: chaintime). The CPU charge is made regardless; the plan itself
	// is only materialized when the grant would determine new orders, since
	// with no pairs to test against W the computation cannot change the
	// decision (it has no side effects on the graph).
	cpu := s.p.ChainTime
	pairs, err := s.graph.GrantOrientations(t, st.File, st.LockMode)
	if err != nil {
		s.record(t, Delay, nil, 0, false, err.Error())
		return Outcome{Decision: Delay, CPU: cpu}
	}
	cp, haveCP := 0.0, false
	if len(pairs) > 0 {
		plan := &s.plan
		if err := s.graph.OptimalChainOrientationInto(wtpg.RemainingDemand, plan); err != nil {
			panic(fmt.Sprintf("sched: GOW graph lost chain form: %v", err))
		}
		cp, haveCP = plan.Value, true
		// Phase 3: the orders granting q would determine must agree with W.
		for _, pr := range pairs {
			if ok, found := plan.Precedes(pr[1], pr[0]); found && ok {
				// W wants the other transaction first; q is inconsistent.
				s.record(t, Delay, pairs, cp, haveCP,
					fmt.Sprintf("W orders T%d before T%d", pr[1], pr[0]))
				return Outcome{Decision: Delay, CPU: cpu}
			}
		}
	}
	// Phase 4: grant and fix the newly determined precedence edges.
	if err := s.graph.OrientAll(pairs); err != nil {
		s.record(t, Delay, pairs, cp, haveCP, err.Error())
		return Outcome{Decision: Delay, CPU: cpu}
	}
	s.locks.Grant(t.ID, st.File, st.LockMode)
	s.record(t, Grant, pairs, cp, haveCP, "")
	return Outcome{Decision: Grant, CPU: cpu}
}

func (s *gow) Validate(*model.Txn) (bool, sim.Time) { return true, 0 }

func (s *gow) Committed(t *model.Txn) {
	s.graph.Remove(t.ID)
	s.locks.ReleaseAll(t.ID)
}

// Aborted removes the transaction's WTPG node (its precedence edges go with
// it) and releases its locks. GOW itself never aborts a transaction; this
// is the fault-induced rollback path.
func (s *gow) Aborted(t *model.Txn) {
	s.graph.Remove(t.ID)
	s.locks.ReleaseAll(t.ID)
}

// Locks exposes the lock table for invariant checks in tests.
func (s *gow) Locks() *lock.Table { return s.locks }

// Graph exposes the WTPG for invariant checks in tests.
func (s *gow) Graph() *wtpg.Graph { return s.graph }
