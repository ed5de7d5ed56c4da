package sched

import (
	"math/rand"
	"testing"

	"batchsched/internal/model"
)

// exp1Pattern is the Experiment-1 transaction: X locks on two files at the
// first two (read) steps, then a write of each.
const exp1Pattern = "Xr(F1:1)->Xr(F2:5)->w(F1:0.2)->w(F2:1)"

func exp1Txn(id int64, f1, f2 model.FileID) *model.Txn {
	return mkTxn(id, exp1Pattern, map[string]model.FileID{"F1": f1, "F2": f2})
}

// aslRefusedFixture: eight admitted Experiment-1 transactions X-lock all 16
// files in pairs, so a ninth that needs files 3 and 9 is refused.
func aslRefusedFixture(tb testing.TB) (Scheduler, *model.Txn) {
	s := NewASL()
	for i := int64(0); i < 8; i++ {
		mustAdmit(tb, s, exp1Txn(i+1, model.FileID(2*i), model.FileID(2*i+1)))
	}
	return s, exp1Txn(9, 3, 9)
}

// c2plChainFixture builds C2PL with transactions T1..Tn, where Ti holds X
// on file i and next needs file i+1 (Tn needs file 0), and a requester R
// that needs files 0 and 1. R's request for file 0 is grantable, but the
// deadlock DFS walks R -> T1 -> ... -> Tn -> R, so it is delayed and the
// call leaves the scheduler unchanged.
func c2plChainFixture(tb testing.TB, n int) (Scheduler, *model.Txn) {
	s := NewC2PL(DefaultParams())
	for i := 1; i <= n; i++ {
		next := model.FileID(i + 1)
		if i == n {
			next = 0
		}
		t := exp1Txn(int64(i), model.FileID(i), next)
		mustAdmit(tb, s, t)
		if out := s.Request(t); out.Decision != Grant {
			tb.Fatalf("chain T%d's first request = %v, want grant", i, out.Decision)
		}
	}
	r := exp1Txn(int64(n+1), 0, 1)
	mustAdmit(tb, s, r)
	return s, r
}

// lowRefusedFixture fills LOW (K = 2) with 24 Experiment-1 transactions,
// three per file pair, so every file already has K+1 conflicting
// declarations and a requester needing files 7 and 8 is refused.
func lowRefusedFixture(tb testing.TB) (Scheduler, *model.Txn) {
	s := NewLOW(DefaultParams())
	for i := int64(0); i < 24; i++ {
		mustAdmit(tb, s, exp1Txn(i+1, model.FileID(2*i%16), model.FileID(2*i%16+1)))
	}
	return s, exp1Txn(25, 7, 8)
}

// TestLockDecisionsAllocFree: a refused ASL admission, a C2PL request that
// runs the deadlock DFS, and a refused LOW admission allocate nothing once
// the transactions' need caches and the DFS scratch exist.
func TestLockDecisionsAllocFree(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) func()
	}{
		{"ASL/refused-admit", func(t *testing.T) func() {
			s, r := aslRefusedFixture(t)
			return func() {
				if ok, _ := s.Admit(r); ok {
					t.Fatal("ASL admitted a transaction whose files are X-locked")
				}
			}
		}},
		{"C2PL/request-dfs", func(t *testing.T) func() {
			s, r := c2plChainFixture(t, 16)
			return func() {
				if out := s.Request(r); out.Decision != Delay {
					t.Fatalf("C2PL decided %v, want delay", out.Decision)
				}
			}
		}},
		{"LOW/refused-admit", func(t *testing.T) func() {
			s, r := lowRefusedFixture(t)
			return func() {
				if ok, _ := s.Admit(r); ok {
					t.Fatal("LOW admitted past the K bound")
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(100, c.run(t)); avg != 0 {
				t.Fatalf("%.1f allocs per call, want 0", avg)
			}
		})
	}
}

// refNeed builds the declaration's lock-need map from its steps (X
// dominates S), the representation the schedulers used before the sorted
// slices.
func refNeed(t *model.Txn) map[model.FileID]model.Mode {
	need := make(map[model.FileID]model.Mode, len(t.Steps))
	for _, st := range t.Steps {
		if cur, ok := need[st.File]; !ok || (cur == model.S && st.LockMode == model.X) {
			need[st.File] = st.LockMode
		}
	}
	return need
}

// refWouldDeadlock is C2PL's deadlock test as it was before the rewrite:
// successor lists built per node from the lock-need map, a fresh visited
// map per call.
func refWouldDeadlock(s *c2pl, t *model.Txn, f model.FileID, m model.Mode) bool {
	heldHypo := func(x int64, g model.FileID) (model.Mode, bool) {
		if x == t.ID && g == f {
			if cur, ok := s.locks.Holds(x, g); ok && cur == model.X {
				return model.X, true
			}
			return m, true
		}
		return s.locks.Holds(x, g)
	}
	successors := func(u *model.Txn) []int64 {
		var out []int64
		for g, need := range refNeed(u) {
			if cur, ok := heldHypo(u.ID, g); ok && (cur == model.X || need == model.S) {
				continue
			}
			if u.ID != t.ID && g == f && !m.Compatible(need) {
				out = append(out, t.ID)
			}
			for _, h := range s.locks.Holders(g) {
				if h == u.ID {
					continue
				}
				if hm, _ := heldHypo(h, g); !hm.Compatible(need) {
					out = append(out, h)
				}
			}
		}
		return out
	}
	visited := make(map[int64]bool)
	stack := successors(t)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == t.ID {
			return true
		}
		if visited[v] {
			continue
		}
		visited[v] = true
		if a, ok := s.active[v]; ok {
			stack = append(stack, successors(a.t)...)
		}
	}
	return false
}

// TestC2PLDeadlockMatchesMapOracle drives C2PL through random batches —
// shared and exclusive steps, upgrades, commits — and before every
// decision compares wouldDeadlock with refWouldDeadlock for the current
// step of every unfinished active transaction.
func TestC2PLDeadlockMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	compared, cycles := 0, 0
	for round := 0; round < 300; round++ {
		s := NewC2PL(DefaultParams()).(*c2pl)
		files := 2 + rng.Intn(5)
		var live []*model.Txn
		for id := int64(1); id <= int64(3+rng.Intn(8)); id++ {
			steps := make([]model.Step, 1+rng.Intn(4))
			for i := range steps {
				w := rng.Intn(2) == 0
				mode := model.S
				if w || rng.Intn(4) == 0 {
					mode = model.X
				}
				steps[i] = model.Step{File: model.FileID(rng.Intn(files)), Write: w,
					LockMode: mode, Cost: 1, DeclaredCost: 1}
			}
			txn := model.NewTxn(id, 0, steps)
			mustAdmit(t, s, txn)
			live = append(live, txn)
		}
		for move := 0; move < 60 && len(live) > 0; move++ {
			for _, u := range live {
				st := u.CurrentStep()
				if holdsSufficient(s.locks, u) || !s.locks.CanGrant(u.ID, st.File, st.LockMode) {
					continue
				}
				got := s.wouldDeadlock(u, st.File, st.LockMode)
				if want := refWouldDeadlock(s, u, st.File, st.LockMode); got != want {
					t.Fatalf("round %d: wouldDeadlock(T%d, f%d, %v) = %v, oracle %v",
						round, u.ID, st.File, st.LockMode, got, want)
				}
				compared++
				if got {
					cycles++
				}
			}
			i := rng.Intn(len(live))
			u := live[i]
			if s.Request(u).Decision != Grant {
				continue
			}
			if u.StepIndex++; u.Done() {
				s.Committed(u)
				live = append(live[:i], live[i+1:]...)
			}
		}
	}
	if compared < 1000 || cycles == 0 {
		t.Fatalf("weak coverage: %d comparisons, %d predicted deadlocks", compared, cycles)
	}
	t.Logf("%d comparisons, %d predicted deadlocks", compared, cycles)
}

// refConflictersOn lists C(q) for t's access (f, m) as LOW built it before
// counting: a copy of the graph's transactions filtered through the
// lock-need map.
func refConflictersOn(s *low, t *model.Txn, f model.FileID, m model.Mode) []*model.Txn {
	var out []*model.Txn
	for _, u := range append([]*model.Txn(nil), s.graph.Txns()...) {
		if um, ok := refNeed(u)[f]; ok && u.ID != t.ID && !um.Compatible(m) {
			out = append(out, u)
		}
	}
	return out
}

// refAdmitBlocked is LOW's K-bound admission test as it was before the
// rewrite: map-iterated needs and materialized conflicter lists.
func refAdmitBlocked(s *low, t *model.Txn) bool {
	for f, m := range refNeed(t) {
		cs := refConflictersOn(s, t, f, m)
		if len(cs) > s.p.K {
			return true
		}
		for _, u := range cs {
			if len(refConflictersOn(s, u, f, refNeed(u)[f]))+1 > s.p.K {
				return true
			}
		}
	}
	return false
}

// TestLOWAdmitMatchesListOracle grows and shrinks random LOW populations
// at K = 0..3 — shared readers beside exclusive writers, so a candidate can
// be refused by its own conflict set or by the set of a transaction it
// joins — and compares admitBlocked with refAdmitBlocked for every
// candidate.
func TestLOWAdmitMatchesListOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	refused, joinRefused := 0, 0
	for round := 0; round < 200; round++ {
		p := DefaultParams()
		p.K = round % 4
		s := NewLOW(p).(*low)
		files := 1 + rng.Intn(4)
		var admitted []*model.Txn
		for id := int64(1); id <= 40; id++ {
			steps := make([]model.Step, 1+rng.Intn(3))
			for i := range steps {
				w := rng.Intn(3) == 0
				mode := model.S
				if w {
					mode = model.X
				}
				steps[i] = model.Step{File: model.FileID(rng.Intn(files)), Write: w,
					LockMode: mode, Cost: 1, DeclaredCost: 1}
			}
			cand := model.NewTxn(id, 0, steps)
			got := s.admitBlocked(cand)
			if want := refAdmitBlocked(s, cand); got != want {
				t.Fatalf("round %d (K=%d): admitBlocked(T%d) = %v, oracle %v", round, p.K, id, got, want)
			}
			if got {
				refused++
				own := false
				for f, m := range refNeed(cand) {
					own = own || len(refConflictersOn(s, cand, f, m)) > p.K
				}
				if !own {
					joinRefused++
				}
			} else {
				mustAdmit(t, s, cand)
				admitted = append(admitted, cand)
			}
			if len(admitted) > 0 && rng.Intn(4) == 0 {
				i := rng.Intn(len(admitted))
				s.Committed(admitted[i])
				admitted = append(admitted[:i], admitted[i+1:]...)
			}
		}
	}
	if refused == 0 || joinRefused == 0 {
		t.Fatalf("weak coverage: %d refusals, %d through a joined transaction's set", refused, joinRefused)
	}
	t.Logf("%d refusals, %d through a joined transaction's set", refused, joinRefused)
}

// BenchmarkASLAdmitRefused times a refused ASL admission test, the call
// ASL repeats for every parked transaction after each commit.
func BenchmarkASLAdmitRefused(b *testing.B) {
	s, r := aslRefusedFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := s.Admit(r); ok {
			b.Fatal("admitted")
		}
	}
}

// BenchmarkC2PLRequest times a C2PL lock request whose deadlock DFS walks
// a 16-transaction waits-for chain back to the requester.
func BenchmarkC2PLRequest(b *testing.B) {
	s, r := c2plChainFixture(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Request(r).Decision != Delay {
			b.Fatal("not delayed")
		}
	}
}

// BenchmarkLOWAdmitRefused times a refused LOW admission test against a
// 24-transaction WTPG at the K bound.
func BenchmarkLOWAdmitRefused(b *testing.B) {
	s, r := lowRefusedFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := s.Admit(r); ok {
			b.Fatal("admitted")
		}
	}
}
