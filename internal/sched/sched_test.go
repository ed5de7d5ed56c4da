package sched

import (
	"testing"

	"batchsched/internal/lock"
	"batchsched/internal/model"
	"batchsched/internal/sim"
	"batchsched/internal/wtpg"
)

func mkTxn(id int64, pattern string, binding map[string]model.FileID) *model.Txn {
	p := model.MustParsePattern(pattern)
	steps, err := p.Instantiate(binding)
	if err != nil {
		panic(err)
	}
	return model.NewTxn(id, 0, steps)
}

func mustAdmit(t testing.TB, s Scheduler, txn *model.Txn) {
	t.Helper()
	ok, _ := s.Admit(txn)
	if !ok {
		t.Fatalf("%s refused to admit T%d", s.Name(), txn.ID)
	}
	txn.Status = model.Active
}

func TestRegistry(t *testing.T) {
	p := DefaultParams()
	for _, name := range Names {
		s, err := New(name, p)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Name() = %q, want %q", s.Name(), name)
		}
	}
	if _, err := New("XYZ", p); err == nil {
		t.Error("unknown scheduler name must error")
	}
}

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if p.DDTime != 1*sim.Millisecond ||
		p.KWTPGTime != 10*sim.Millisecond ||
		p.ChainTime != 30*sim.Millisecond ||
		p.TopTime != 5*sim.Millisecond ||
		p.K != 2 {
		t.Errorf("DefaultParams = %+v does not match Table 1", p)
	}
}

func TestDecisionString(t *testing.T) {
	if Grant.String() != "grant" || Block.String() != "block" ||
		Delay.String() != "delay" || Abort.String() != "abort" {
		t.Error("Decision.String mismatch")
	}
}

func TestNODCGrantsEverything(t *testing.T) {
	s := NewNODC()
	files := map[string]model.FileID{"A": 0}
	a := mkTxn(1, "w(A:1)", files)
	b := mkTxn(2, "w(A:1)", files)
	mustAdmit(t, s, a)
	mustAdmit(t, s, b)
	if out := s.Request(a); out.Decision != Grant {
		t.Errorf("NODC request = %v, want grant", out.Decision)
	}
	if out := s.Request(b); out.Decision != Grant {
		t.Errorf("NODC conflicting request = %v, want grant (no data contention)", out.Decision)
	}
	if ok, _ := s.Validate(a); !ok {
		t.Error("NODC validation must always pass")
	}
	s.Committed(a)
	s.Committed(b)
}

func TestASLAdmission(t *testing.T) {
	s := NewASL()
	files := map[string]model.FileID{"d": 0, "e": 1, "f": 2, "g": 3}
	a := mkTxn(1, "w(d:1)->w(e:1)", files)
	b := mkTxn(2, "w(e:1)->w(f:1)", files)
	c := mkTxn(3, "w(f:1)->w(g:1)", files)

	mustAdmit(t, s, a)
	if ok, _ := s.Admit(b); ok {
		t.Fatal("ASL must refuse b: its lock set overlaps a's")
	}
	// c overlaps b but b is NOT running, so c starts.
	mustAdmit(t, s, c)

	// Every step of an admitted ASL transaction is a grant.
	for i := range a.Steps {
		a.StepIndex = i
		if out := s.Request(a); out.Decision != Grant {
			t.Fatalf("ASL step %d = %v, want grant", i, out.Decision)
		}
	}
	s.Committed(a)
	// b still conflicts with the running c on f.
	if ok, _ := s.Admit(b); ok {
		t.Fatal("b overlaps running c on f")
	}
	s.Committed(c)
	mustAdmit(t, s, b)
}

func TestASLConflictWithRunningEvenAfterPartialOverlap(t *testing.T) {
	s := NewASL()
	files := map[string]model.FileID{"d": 0, "e": 1, "f": 2}
	a := mkTxn(1, "w(d:1)->w(e:1)", files)
	b := mkTxn(2, "w(e:1)->w(f:1)", files)
	mustAdmit(t, s, a)
	if ok, _ := s.Admit(b); ok {
		t.Fatal("b overlaps running a on e")
	}
	s.Committed(a)
	mustAdmit(t, s, b)
}

func TestASLSharedReadersCoexist(t *testing.T) {
	s := NewASL()
	files := map[string]model.FileID{"A": 0}
	a := mkTxn(1, "r(A:5)", files)
	b := mkTxn(2, "r(A:5)", files)
	mustAdmit(t, s, a)
	mustAdmit(t, s, b) // S-S compatible
}

func TestC2PLBlockAndDeadlockAvoidance(t *testing.T) {
	s := NewC2PL(DefaultParams())
	files := map[string]model.FileID{"d": 0, "e": 1}
	a := mkTxn(1, "w(d:1)->w(e:1)", files)
	b := mkTxn(2, "w(e:1)->w(d:1)", files)
	mustAdmit(t, s, a)
	mustAdmit(t, s, b)

	// a takes d.
	if out := s.Request(a); out.Decision != Grant {
		t.Fatalf("a's first request = %v, want grant", out.Decision)
	}
	if out := s.Request(a); out.CPU != 0 || out.Decision != Grant {
		t.Fatalf("re-request of a held lock = %+v, want free grant", out)
	}
	// b asks for e: granting would put b before a, contradicting a->d
	// (pair conflicts on both files) — the cautious test must DELAY it.
	out := s.Request(b)
	if out.Decision != Delay {
		t.Fatalf("b's request = %v, want delay (deadlock prediction)", out.Decision)
	}
	if out.CPU != DefaultParams().DDTime {
		t.Errorf("deadlock test CPU = %v, want ddtime", out.CPU)
	}
	// a continues to e and commits; then b can go.
	a.StepIndex = 1
	if out := s.Request(a); out.Decision != Grant {
		t.Fatalf("a's second request = %v, want grant", out.Decision)
	}
	a.StepIndex = 2
	s.Committed(a)
	if out := s.Request(b); out.Decision != Grant {
		t.Fatalf("b after a's commit = %v, want grant", out.Decision)
	}
	// A third transaction wanting d is blocked by b's holding... b holds e
	// only; it wants e: blocked.
	c := mkTxn(3, "w(e:2)", files)
	mustAdmit(t, s, c)
	if out := s.Request(c); out.Decision != Block {
		t.Fatalf("c against held lock = %v, want block", out.Decision)
	}
	b.StepIndex = 1
	if out := s.Request(b); out.Decision != Grant {
		t.Fatalf("b's second step = %v, want grant", out.Decision)
	}
	b.StepIndex = 2
	s.Committed(b)
	if out := s.Request(c); out.Decision != Grant {
		t.Fatalf("c after release = %v, want grant", out.Decision)
	}
}

func TestC2PLSeedPreventsLateArrivalDeadlock(t *testing.T) {
	// a is granted d before b even arrives. When b (which needs both d and
	// e) is admitted, the holder order a->b must be seeded so that granting
	// b's request on e is recognized as a future deadlock.
	s := NewC2PL(DefaultParams())
	files := map[string]model.FileID{"d": 0, "e": 1}
	a := mkTxn(1, "w(d:1)->w(e:1)", files)
	mustAdmit(t, s, a)
	if out := s.Request(a); out.Decision != Grant {
		t.Fatal("a must get d")
	}
	b := mkTxn(2, "w(e:1)->w(d:1)", files)
	mustAdmit(t, s, b)
	if out := s.Request(b); out.Decision != Delay {
		t.Fatalf("b's request on e = %v, want delay (would deadlock with a)", out.Decision)
	}
}

func TestC2PLMAdmissionLimit(t *testing.T) {
	p := DefaultParams()
	s := NewC2PLM(p, 1)
	files := map[string]model.FileID{"d": 0, "e": 1}
	a := mkTxn(1, "w(d:1)", files)
	b := mkTxn(2, "w(e:1)", files)
	mustAdmit(t, s, a)
	if ok, _ := s.Admit(b); ok {
		t.Fatal("mpl=1 must refuse a second admission")
	}
	a.StepIndex = 1
	s.Committed(a)
	mustAdmit(t, s, b)
}

func TestOPTValidationAbortsOnConflict(t *testing.T) {
	s := NewOPT()
	files := map[string]model.FileID{"A": 0, "B": 1}
	writer := mkTxn(1, "w(A:1)", files)
	reader := mkTxn(2, "r(A:5)->w(B:1)", files)
	bystander := mkTxn(3, "w(B:2)", files)

	mustAdmit(t, s, reader)
	mustAdmit(t, s, writer)
	mustAdmit(t, s, bystander)
	if out := s.Request(writer); out.Decision != Grant {
		t.Fatal("OPT must grant without locks")
	}
	// writer commits while reader is running -> reader's validation fails.
	if ok, _ := s.Validate(writer); !ok {
		t.Fatal("writer must validate (nothing committed)")
	}
	s.Committed(writer)
	if ok, _ := s.Validate(reader); ok {
		t.Fatal("reader must fail validation: a committed writer wrote A")
	}
	s.Aborted(reader)
	// bystander's set is disjoint from writer's writes... B is not written
	// by writer, so it validates.
	if ok, _ := s.Validate(bystander); !ok {
		t.Fatal("bystander must validate: writer wrote only A")
	}
	s.Committed(bystander)
	// reader restarts; now nothing conflicting commits during the attempt.
	mustAdmit(t, s, reader)
	if ok, _ := s.Validate(reader); !ok {
		t.Fatal("restarted reader must validate")
	}
	s.Committed(reader)
}

func TestOPTWriteWriteConflictAborts(t *testing.T) {
	s := NewOPT()
	files := map[string]model.FileID{"A": 0}
	w1 := mkTxn(1, "w(A:1)", files)
	w2 := mkTxn(2, "w(A:1)", files)
	mustAdmit(t, s, w1)
	mustAdmit(t, s, w2)
	s.Committed(w1)
	if ok, _ := s.Validate(w2); ok {
		t.Fatal("w2 must fail validation after w1 committed a write to A")
	}
}

// TestFaultAbortReleasesState: the lock-based schedulers never abort on
// their own, but a fault-induced rollback (node crash, message-retry
// exhaustion) reaches Aborted mid-flight — it must leave no scheduler state
// behind (locks released, WTPG node removed, admission slot freed) and the
// transaction must be re-admittable.
func TestFaultAbortReleasesState(t *testing.T) {
	files := map[string]model.FileID{"A": 0, "B": 1}
	for _, name := range []string{"NODC", "ASL", "C2PL", "C2PL+M", "GOW", "LOW"} {
		s := MustNew(name, DefaultParams())
		tx := mkTxn(1, "w(A:1)->w(B:1)", files)
		mustAdmit(t, s, tx)
		if out := s.Request(tx); out.Decision != Grant {
			t.Fatalf("%s: lone request = %v, want grant", name, out.Decision)
		}
		s.Aborted(tx)
		tx.StepIndex = 0
		if lt, ok := s.(interface{ Locks() *lock.Table }); ok {
			if n := lt.Locks().LockedFiles(); n != 0 {
				t.Errorf("%s: %d files still locked after fault abort", name, n)
			}
		}
		if gr, ok := s.(interface{ Graph() *wtpg.Graph }); ok {
			if n := gr.Graph().Len(); n != 0 {
				t.Errorf("%s: %d WTPG nodes left after fault abort", name, n)
			}
		}
		if ac, ok := s.(interface{ Active() int }); ok {
			if n := ac.Active(); n != 0 {
				t.Errorf("%s: %d active transactions left after fault abort", name, n)
			}
		}
		mustAdmit(t, s, tx) // the rolled-back transaction resubmits cleanly
	}
}

// TestTrivialSurfaces exercises the small accessor and validation methods
// of every scheduler so interface regressions are caught.
func TestTrivialSurfaces(t *testing.T) {
	files := map[string]model.FileID{"A": 0}
	p := DefaultParams()

	aslS := NewASL().(*asl)
	tx := mkTxn(1, "w(A:1)", files)
	mustAdmit(t, aslS, tx)
	if ok, cpu := aslS.Validate(tx); !ok || cpu != 0 {
		t.Error("ASL validate")
	}
	if aslS.Locks() == nil {
		t.Error("ASL lock table")
	}

	c := NewC2PL(p).(*c2pl)
	tx2 := mkTxn(2, "w(A:1)", files)
	mustAdmit(t, c, tx2)
	if ok, _ := c.Validate(tx2); !ok {
		t.Error("C2PL validate")
	}
	if c.Locks() == nil || c.Active() != 1 {
		t.Error("C2PL accessors")
	}

	g := NewGOW(p).(*gow)
	tx3 := mkTxn(3, "w(A:1)", files)
	mustAdmit(t, g, tx3)
	if ok, _ := g.Validate(tx3); !ok {
		t.Error("GOW validate")
	}
	if g.Locks() == nil || g.Graph() == nil {
		t.Error("GOW accessors")
	}

	l := NewLOW(p).(*low)
	tx4 := mkTxn(4, "w(A:1)", files)
	mustAdmit(t, l, tx4)
	if ok, _ := l.Validate(tx4); !ok {
		t.Error("LOW validate")
	}
	if l.Locks() == nil || l.Graph() == nil {
		t.Error("LOW accessors")
	}

	s2 := NewS2PL(p).(*s2pl)
	tx5 := mkTxn(5, "w(A:1)", files)
	mustAdmit(t, s2, tx5)
	if ok, _ := s2.Validate(tx5); !ok {
		t.Error("2PL validate")
	}
	if s2.Locks() == nil {
		t.Error("2PL lock table")
	}

	n := NewNODC()
	n.Committed(tx5) // no-op must not panic
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew("bogus", DefaultParams())
}

// TestASLPanicsWithoutLock guards the ASL invariant that admitted
// transactions hold every lock.
func TestASLPanicsWithoutLock(t *testing.T) {
	s := NewASL()
	tx := mkTxn(9, "w(A:1)", map[string]model.FileID{"A": 0})
	// Not admitted: requesting must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Request(tx)
}
