package sched

import (
	"testing"

	"batchsched/internal/model"
	"batchsched/internal/sim"
)

// TestGOWFig3Consistency reproduces the paper's Section 3.2 worked example:
// in the chain T1-T2-T3 the optimal order W puts T1 before T2 and T3 before
// T2, so a request by T1 conflicting with T2 is granted while a request by
// T2 conflicting with T1 is delayed.
func TestGOWFig3Consistency(t *testing.T) {
	s := NewGOW(DefaultParams()).(*gow)
	files := map[string]model.FileID{"u": 0, "v": 1}
	t1 := mkTxn(1, "w(u:5)", files)
	t2 := mkTxn(2, "w(u:1)->w(v:1)", files)
	t3 := mkTxn(3, "w(v:6)", files)
	mustAdmit(t, s, t1)
	mustAdmit(t, s, t2)
	mustAdmit(t, s, t3)

	// T2 requests its first lock (on u, conflicting with T1): W wants T1
	// first, so the request is delayed.
	out := s.Request(t2)
	if out.Decision != Delay {
		t.Fatalf("T2's request = %v, want delay (inconsistent with W)", out.Decision)
	}
	if out.CPU != DefaultParams().ChainTime {
		t.Errorf("GOW request CPU = %v, want chaintime", out.CPU)
	}

	// T1's request on u is consistent with W: granted.
	if out := s.Request(t1); out.Decision != Grant {
		t.Fatalf("T1's request = %v, want grant", out.Decision)
	}
	// T3's request on v (T3 before T2) is consistent too.
	if out := s.Request(t3); out.Decision != Grant {
		t.Fatalf("T3's request = %v, want grant", out.Decision)
	}
	// T2 now blocks on the held lock (Phase 1), not policy delay.
	if out := s.Request(t2); out.Decision != Block {
		t.Fatalf("T2 against held lock = %v, want block", out.Decision)
	}
	// T1 finishes; T2 retries u: grant (T1 gone, W trivial).
	t1.StepIndex = 1
	s.Committed(t1)
	if out := s.Request(t2); out.Decision != Grant {
		t.Fatalf("T2 after T1's commit = %v, want grant", out.Decision)
	}
}

func TestGOWAdmissionChainForm(t *testing.T) {
	s := NewGOW(DefaultParams())
	files := map[string]model.FileID{"u": 0, "v": 1, "w": 2}
	hub := mkTxn(1, "w(u:1)->w(v:1)->w(w:1)", files)
	mustAdmit(t, s, hub)
	mustAdmit(t, s, mkTxn(2, "w(u:1)", files))
	mustAdmit(t, s, mkTxn(3, "w(v:1)", files))
	// A third conflicter would give the hub degree 3: refused, costing the
	// chain-form test time.
	spoke := mkTxn(4, "w(w:1)", files)
	ok, cpu := s.Admit(spoke)
	if ok {
		t.Fatal("GOW must refuse an admission that breaks chain form")
	}
	if cpu != DefaultParams().TopTime {
		t.Errorf("chain-form test CPU = %v, want toptime", cpu)
	}
	// A cycle-closing transaction is refused as well.
	closer := mkTxn(5, "w(u:1)->w(v:1)", files)
	if ok, _ := s.Admit(closer); ok {
		t.Fatal("GOW must refuse a cycle-closing admission")
	}
	// But a transaction on an untouched file is admitted.
	mustAdmit(t, s, mkTxn(6, "r(z:1)", map[string]model.FileID{"z": 9}))
	_ = spoke
}

// TestLOWFig6Decision reproduces the paper's Section 3.3 worked example
// (Fig. 6): with precedence T4->T5 and T6->T7 already determined and
// conflicts (T5,T6) and (T4,T7) open, T5's lock request q on the shared
// file has E(q) > E(p) for T6's declaration p, so q is delayed; T6's own
// request is granted.
func TestLOWFig6Decision(t *testing.T) {
	s := NewLOW(DefaultParams()).(*low)
	files := map[string]model.FileID{"a": 0, "b": 1, "c": 2, "d": 3}
	t4 := mkTxn(4, "w(a:1)->w(d:1)", files)
	t5 := mkTxn(5, "w(a:0)->w(b:1)", files)
	t6 := mkTxn(6, "w(b:1)->w(c:1)", files)
	t7 := mkTxn(7, "w(d:9)->w(c:1)", files)
	mustAdmit(t, s, t4)
	mustAdmit(t, s, t5)
	mustAdmit(t, s, t6)
	mustAdmit(t, s, t7)
	if err := s.Graph().OrientAll([][2]int64{{4, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Graph().OrientAll([][2]int64{{6, 7}}); err != nil {
		t.Fatal(err)
	}

	// q: T5 requests file b (its second step).
	t5.StepIndex = 1
	out := s.Request(t5)
	if out.Decision != Delay {
		t.Fatalf("T5's request = %v, want delay (E(q) > E(p))", out.Decision)
	}
	// E(q) and one E(p) were computed: 2 * kwtpgtime.
	if want := 2 * DefaultParams().KWTPGTime; out.CPU != want {
		t.Errorf("LOW request CPU = %v, want %v", out.CPU, want)
	}

	// p: T6 requests file b (its first step): granted.
	if out := s.Request(t6); out.Decision != Grant {
		t.Fatalf("T6's request = %v, want grant", out.Decision)
	}
	// After the grant, T5's retry blocks on the held lock.
	if out := s.Request(t5); out.Decision != Block {
		t.Fatalf("T5 retry = %v, want block", out.Decision)
	}
}

func TestLOWAdmissionKBound(t *testing.T) {
	p := DefaultParams()
	p.K = 2
	s := NewLOW(p)
	files := map[string]model.FileID{"h": 0}
	mustAdmit(t, s, mkTxn(1, "w(h:1)", files))
	mustAdmit(t, s, mkTxn(2, "w(h:1)", files))
	// Third conflicting declaration on h would push the first two
	// transactions' conflict sets to 2 and its own to 2: still allowed.
	mustAdmit(t, s, mkTxn(3, "w(h:1)", files))
	// Fourth: its own C(q) on h would have size 3 > K: refused.
	if ok, _ := s.Admit(mkTxn(4, "w(h:1)", files)); ok {
		t.Fatal("LOW must refuse the 4th conflicting declaration at K=2")
	}
	// A non-conflicting reader of another file is fine.
	mustAdmit(t, s, mkTxn(5, "r(h:1)", map[string]model.FileID{"h": 1}))
}

func TestLOWAdmissionKZeroEqualsNoSharedConflicts(t *testing.T) {
	p := DefaultParams()
	p.K = 0
	s := NewLOW(p)
	files := map[string]model.FileID{"h": 0}
	mustAdmit(t, s, mkTxn(1, "w(h:1)", files))
	if ok, _ := s.Admit(mkTxn(2, "w(h:1)", files)); ok {
		t.Fatal("K=0 must refuse any conflicting admission")
	}
}

func TestLOWDelaysDeadlockingRequest(t *testing.T) {
	s := NewLOW(DefaultParams()).(*low)
	files := map[string]model.FileID{"d": 0, "e": 1}
	a := mkTxn(1, "w(d:1)->w(e:1)", files)
	b := mkTxn(2, "w(e:1)->w(d:1)", files)
	mustAdmit(t, s, a)
	mustAdmit(t, s, b)
	if out := s.Request(a); out.Decision != Grant {
		t.Fatalf("a's request = %v, want grant", out.Decision)
	}
	// b's grant on e would contradict a->b: E(q) = +Inf -> delay.
	if out := s.Request(b); out.Decision != Delay {
		t.Fatalf("b's request = %v, want delay", out.Decision)
	}
	// After a commits, b goes through.
	a.StepIndex = 2
	s.Committed(a)
	if out := s.Request(b); out.Decision != Grant {
		t.Fatalf("b after commit = %v, want grant", out.Decision)
	}
}

func TestGOWDelaysDeadlockingRequest(t *testing.T) {
	s := NewGOW(DefaultParams())
	files := map[string]model.FileID{"d": 0, "e": 1}
	a := mkTxn(1, "w(d:1)->w(e:1)", files)
	b := mkTxn(2, "w(e:1)->w(d:1)", files)
	mustAdmit(t, s, a)
	mustAdmit(t, s, b)
	if out := s.Request(a); out.Decision != Grant {
		t.Fatalf("a = %v, want grant", out.Decision)
	}
	out := s.Request(b)
	if out.Decision != Delay {
		t.Fatalf("b = %v, want delay (would contradict a->b)", out.Decision)
	}
}

func TestWTPGSchedulersFreeGrantForHeldLock(t *testing.T) {
	files := map[string]model.FileID{"A": 0}
	for _, name := range []string{"GOW", "LOW"} {
		s := MustNew(name, DefaultParams())
		tx := mkTxn(1, "Xr(A:1)->w(A:0.2)", files)
		mustAdmit(t, s, tx)
		if out := s.Request(tx); out.Decision != Grant {
			t.Fatalf("%s first request = %v", name, out.Decision)
		}
		tx.StepIndex = 1
		out := s.Request(tx)
		if out.Decision != Grant || out.CPU != sim.Time(0) {
			t.Errorf("%s re-request of held X = %+v, want free grant", name, out)
		}
	}
}
