package sched

import (
	"math"

	"batchsched/internal/lock"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sim"
	"batchsched/internal/wtpg"
)

// low is the Locally-Optimized WTPG scheduler (paper Figs. 5 and 7;
// "K-conflict WTPG" in the authors' earlier work). Instead of GOW's global
// chain-form constraint it bounds each access's conflicting-declaration set
// to K and grants a lock request q only when its contention estimate E(q) is
// no worse than the estimate E(p) of every conflicting declaration p — a
// local, present-state optimization that admits more transactions when
// batches update a hot set.
type low struct {
	p     Params
	locks *lock.Table
	graph *wtpg.Graph
	w0    wtpg.T0Weight
	name  string

	// audit, when set, records every lock-request decision with C(q) and
	// the E(q)/E(p) estimates the grant test compared.
	audit *obs.Audit
}

// NewLOW returns a Locally-Optimized WTPG scheduler with conflict bound p.K.
func NewLOW(p Params) Scheduler {
	if p.K < 0 {
		p.K = 0
	}
	return &low{p: p, locks: lock.NewTable(), graph: wtpg.New(),
		w0: wtpg.RemainingDemand, name: "LOW"}
}

// NewLOWLB returns the load-balancing extension of LOW the paper's
// conclusion names as further work ("improve these new schedulers for
// resource-level load-balancing"): the T0 weights of the WTPG scale each
// remaining step's declared demand by the current congestion of the nodes
// that will execute it, so E(q) estimates remaining *time* rather than
// remaining demand and grants steer work toward idle nodes. The machine
// injects the congestion probe via SetLoadProbe.
func NewLOWLB(p Params) Scheduler {
	if p.K < 0 {
		p.K = 0
	}
	s := &low{p: p, locks: lock.NewTable(), graph: wtpg.New(), name: "LOW-LB"}
	s.w0 = wtpg.RemainingDemand // until a probe is injected
	return s
}

// LoadAware is implemented by schedulers that consume resource-level load
// information; the machine injects a probe returning the mean number of
// resident cohorts on the nodes holding a file's partitions.
type LoadAware interface {
	SetLoadProbe(func(f model.FileID) float64)
}

// SetLoadProbe implements LoadAware for the LOW-LB variant (a no-op for
// plain LOW).
func (s *low) SetLoadProbe(probe func(f model.FileID) float64) {
	if s.name != "LOW-LB" || probe == nil {
		return
	}
	s.w0 = func(t *model.Txn) float64 {
		var sum float64
		for i := t.StepIndex; i < len(t.Steps); i++ {
			st := t.Steps[i]
			sum += st.DeclaredCost * (1 + probe(st.File))
		}
		return sum
	}
}

func (s *low) Name() string { return s.name }

// SetAudit implements Audited.
func (s *low) SetAudit(a *obs.Audit) { s.audit = a }

// record appends one audited lock-request decision. Deadlocked estimates
// evaluate to +Inf, which JSON cannot represent, so they are recorded as -1
// (E(q) additionally gets an explanatory note).
func (s *low) record(t *model.Txn, d Decision, cands []int64, eq float64, haveEQ bool, eps []float64, note string) {
	if s.audit == nil {
		return
	}
	for i, ep := range eps {
		if math.IsInf(ep, 1) {
			eps[i] = -1
		}
	}
	st := t.CurrentStep()
	e := obs.AuditEntry{
		Scheduler: s.name, Txn: t.ID,
		File: int(st.File), Mode: st.LockMode.String(),
		Decision: d.String(), Candidates: cands, EPs: eps, Note: note,
	}
	if haveEQ {
		e.EQ = eq
		if math.IsInf(eq, 1) {
			e.EQ = -1
			e.Note = "deadlock: E(q)=+Inf"
		}
	}
	s.audit.Record(e)
}

// Admit starts t only when doing so keeps every conflicting-declaration set
// within the bound K: for each file t declares, both t's own conflict set
// on that file and the conflict sets of the transactions it joins must stay
// at size <= K.
func (s *low) Admit(t *model.Txn) (bool, sim.Time) {
	if s.admitBlocked(t) {
		return false, 0
	}
	s.graph.Add(t)
	seedHolderOrder(s.graph, s.locks, t)
	return true, 0
}

// admitBlocked is the K-bound admission test, read-only on the graph: t is
// refused when some file's conflicting-declaration set — t's own, or that of
// a transaction t would join — would exceed K. It counts those sets with an
// early exit instead of listing them, so a refused admission allocates
// nothing.
func (s *low) admitBlocked(t *model.Txn) bool {
	files, modes := t.LockNeedSorted()
	for i, f := range files {
		if countConflicters(s.graph, t, f, modes[i], s.p.K) > s.p.K {
			return true
		}
		for _, u := range s.graph.Txns() {
			// u's conflict set on f after t joins: current conflicters of
			// u's access plus t itself.
			um, ok := conflictsOn(u, t, f, modes[i])
			if ok && countConflicters(s.graph, u, f, um, s.p.K-1)+1 > s.p.K {
				return true
			}
		}
	}
	return false
}

func (s *low) Request(t *model.Txn) Outcome {
	if holdsSufficient(s.locks, t) {
		s.record(t, Grant, nil, 0, false, nil, "holds sufficient lock")
		return Outcome{Decision: Grant}
	}
	st := t.CurrentStep()
	// Phase 1: blocked by a current holder.
	if !s.locks.CanGrant(t.ID, st.File, st.LockMode) {
		s.record(t, Block, nil, 0, false, nil, "conflicting lock holder")
		return Outcome{Decision: Block}
	}
	// Phase 2: E(q); a deadlock evaluates to +Inf and q is delayed.
	cpu := s.p.KWTPGTime
	eq := wtpg.Evaluate(s.graph, t, st.File, st.LockMode, s.w0)
	if math.IsInf(eq, 1) {
		s.record(t, Delay, nil, eq, true, nil, "")
		return Outcome{Decision: Delay, CPU: cpu}
	}
	// Phase 3: q wins only if E(q) <= E(p) for every conflicting
	// declaration p in C(q). Each E(p) costs another kwtpgtime.
	var cands []int64
	var eps []float64
	for _, u := range s.graph.Txns() {
		um, ok := conflictsOn(u, t, st.File, st.LockMode)
		if !ok {
			continue
		}
		cpu += s.p.KWTPGTime
		ep := wtpg.Evaluate(s.graph, u, st.File, um, s.w0)
		if s.audit != nil {
			cands = append(cands, u.ID)
			eps = append(eps, ep)
		}
		if eq > ep {
			s.record(t, Delay, cands, eq, true, eps, "E(q) > E(p)")
			return Outcome{Decision: Delay, CPU: cpu}
		}
	}
	// Phase 4: grant and fix the newly determined precedence edges.
	if err := s.graph.Grant(t, st.File, st.LockMode); err != nil {
		s.record(t, Delay, cands, eq, true, eps, err.Error())
		return Outcome{Decision: Delay, CPU: cpu}
	}
	s.locks.Grant(t.ID, st.File, st.LockMode)
	s.record(t, Grant, cands, eq, true, eps, "")
	return Outcome{Decision: Grant, CPU: cpu}
}

func (s *low) Validate(*model.Txn) (bool, sim.Time) { return true, 0 }

func (s *low) Committed(t *model.Txn) {
	s.graph.Remove(t.ID)
	s.locks.ReleaseAll(t.ID)
}

// Aborted removes the transaction's WTPG node (its precedence edges go with
// it) and releases its locks. LOW itself never aborts a transaction; this
// is the fault-induced rollback path.
func (s *low) Aborted(t *model.Txn) {
	s.graph.Remove(t.ID)
	s.locks.ReleaseAll(t.ID)
}

// Locks exposes the lock table for invariant checks in tests.
func (s *low) Locks() *lock.Table { return s.locks }

// Graph exposes the WTPG for invariant checks in tests.
func (s *low) Graph() *wtpg.Graph { return s.graph }
