package model

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// paperT1 and paperT2 are the transactions of Fig. 2-(a):
//
//	T1: r1(A:1) -> r1(B:3) -> w1(A:1)
//	T2: r2(C:1) -> w2(A:1) -> w2(C:1)
func paperT1() *Txn {
	return NewTxn(1, 0, mustSteps(t1Pattern, map[string]FileID{"A": 0, "B": 1}))
}

func paperT2() *Txn {
	return NewTxn(2, 0, mustSteps(t2Pattern, map[string]FileID{"A": 0, "C": 2}))
}

var (
	t1Pattern = MustParsePattern("r(A:1)->r(B:3)->w(A:1)")
	t2Pattern = MustParsePattern("r(C:1)->w(A:1)->w(C:1)")
)

func mustSteps(p *Pattern, b map[string]FileID) []Step {
	s, err := p.Instantiate(b)
	if err != nil {
		panic(err)
	}
	return s
}

func TestModeCompatibility(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{S, S, true}, {S, X, false}, {X, S, false}, {X, X, false},
	}
	for _, c := range cases {
		if got := c.a.Compatible(c.b); got != c.want {
			t.Errorf("%v.Compatible(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if S.String() != "S" || X.String() != "X" {
		t.Error("Mode.String mismatch")
	}
}

func TestPaperFig2Weights(t *testing.T) {
	t1, t2 := paperT1(), paperT2()

	// T2 is blocked by T1 at its second step w2(A:1); remaining cost from
	// there is 1 + 1 = 2. So the weight on {T1 -> T2} is 2 (paper Section
	// 3.1, weight rule 1 example).
	w, ok := ConflictWeight(t2, t1)
	if !ok {
		t.Fatal("T1 and T2 must conflict (both access A with an X side)")
	}
	if w != 2 {
		t.Errorf("w(T1->T2) = %g, want 2", w)
	}

	// T1's first access conflicting with T2 is step 0 (r1(A:1) vs w2(A:1));
	// remaining cost from there is the full 5 objects.
	w, ok = ConflictWeight(t1, t2)
	if !ok || w != 5 {
		t.Errorf("w(T2->T1) = %g ok=%v, want 5 true", w, ok)
	}

	// {T0 -> T1} weight at startup is T1's full remaining demand, 5.
	if got := t1.DeclaredRemaining(0); got != 5 {
		t.Errorf("T0->T1 weight = %g, want 5", got)
	}
	if got := t2.DeclaredRemaining(0); got != 3 {
		t.Errorf("T0->T2 weight = %g, want 3", got)
	}
}

func TestFirstConflictStep(t *testing.T) {
	t1, t2 := paperT1(), paperT2()
	if i, ok := FirstConflictStep(t2, t1); !ok || i != 1 {
		t.Errorf("FirstConflictStep(T2, T1) = %d %v, want 1 true", i, ok)
	}
	if i, ok := FirstConflictStep(t1, t2); !ok || i != 0 {
		t.Errorf("FirstConflictStep(T1, T2) = %d %v, want 0 true", i, ok)
	}

	// Read-read on the same file does not conflict.
	a := NewTxn(3, 0, mustSteps(MustParsePattern("r(A:1)"), map[string]FileID{"A": 0}))
	b := NewTxn(4, 0, mustSteps(MustParsePattern("r(A:2)"), map[string]FileID{"A": 0}))
	if Conflicts(a, b) {
		t.Error("S-S on the same file must not conflict")
	}

	// Disjoint files never conflict.
	c := NewTxn(5, 0, mustSteps(MustParsePattern("w(A:1)"), map[string]FileID{"A": 7}))
	if Conflicts(a, c) {
		t.Error("disjoint files must not conflict")
	}
}

func TestLockNeedXDominates(t *testing.T) {
	// Experiment-1 pattern: X-locks requested at the first two (read) steps.
	p := MustParsePattern("Xr(F1:1)->Xr(F2:5)->w(F1:0.2)->w(F2:1)")
	steps := mustSteps(p, map[string]FileID{"F1": 3, "F2": 9})
	txn := NewTxn(1, 0, steps)
	files, modes := txn.LockNeedSorted()
	if !reflect.DeepEqual(files, []FileID{3, 9}) || !reflect.DeepEqual(modes, []Mode{X, X}) {
		t.Errorf("LockNeedSorted = %v %v, want X on files 3 and 9", files, modes)
	}
	if m, ok := txn.NeedMode(9); !ok || m != X {
		t.Errorf("NeedMode(9) = %v %v, want X true", m, ok)
	}
	if _, ok := txn.NeedMode(4); ok {
		t.Error("NeedMode(4) reports a file the declaration never touches")
	}
	if got := txn.TotalCost(); got != 7.2 {
		t.Errorf("TotalCost = %g, want 7.2", got)
	}
	rs, ws := txn.ReadSet(), txn.WriteSet()
	if !rs[3] || !rs[9] || !ws[3] || !ws[9] {
		t.Errorf("read/write sets wrong: r=%v w=%v", rs, ws)
	}
}

func TestLockNeedUpgrade(t *testing.T) {
	p := MustParsePattern("r(A:1)->w(A:1)")
	txn := NewTxn(1, 0, mustSteps(p, map[string]FileID{"A": 0}))
	if m, ok := txn.NeedMode(0); !ok || m != X {
		t.Error("S followed by X on same file must need X overall")
	}
	if files, _ := txn.LockNeedSorted(); len(files) != 1 {
		t.Errorf("need files = %v, want one entry for the upgraded file", files)
	}
	if txn.Steps[0].LockMode != S {
		t.Error("first step itself still requests S")
	}
}

func TestTxnLifecycleHelpers(t *testing.T) {
	txn := paperT1()
	if txn.Done() {
		t.Fatal("fresh txn is not done")
	}
	if txn.CurrentStep().File != 0 {
		t.Errorf("CurrentStep.File = %d, want 0", txn.CurrentStep().File)
	}
	txn.StepIndex = len(txn.Steps)
	if !txn.Done() {
		t.Fatal("txn with StepIndex past end must be done")
	}
	if got := txn.DeclaredRemaining(2); got != 1 {
		t.Errorf("DeclaredRemaining(2) = %g, want 1", got)
	}
	if got := txn.DeclaredRemaining(99); got != 0 {
		t.Errorf("DeclaredRemaining past end = %g, want 0", got)
	}
}

func TestStatusString(t *testing.T) {
	if Pending.String() != "pending" || Active.String() != "active" || Committed.String() != "committed" {
		t.Error("Status.String mismatch")
	}
}

func TestTxnString(t *testing.T) {
	got := paperT2().String()
	want := "T2: r(2:1)->w(0:1)->w(2:1)"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// Property: ConflictWeight(of, with) is always <= of's total declared demand
// and > 0 when a conflict exists, and Conflicts is symmetric.
func TestConflictProperties(t *testing.T) {
	type spec struct {
		FileA, FileB uint8
		WA, WB       bool
	}
	prop := func(a, b spec) bool {
		ta := NewTxn(1, 0, []Step{mkStep(a.FileA, a.WA, 1), mkStep(a.FileB, a.WB, 2)})
		tb := NewTxn(2, 0, []Step{mkStep(b.FileA, b.WA, 3), mkStep(b.FileB, b.WB, 4)})
		if Conflicts(ta, tb) != Conflicts(tb, ta) {
			return false
		}
		if w, ok := ConflictWeight(ta, tb); ok {
			if w <= 0 || w > ta.DeclaredRemaining(0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func mkStep(file uint8, write bool, cost float64) Step {
	m := S
	if write {
		m = X
	}
	return Step{File: FileID(file % 4), Write: write, LockMode: m, Cost: cost, DeclaredCost: cost}
}

// Property: LockNeedSorted holds each touched file once, ascending, with the
// strongest mode any step requests on it — the map a scan of the steps
// builds.
func TestLockNeedSortedMatchesSteps(t *testing.T) {
	prop := func(raw []struct {
		File uint8
		X    bool
	}) bool {
		steps := make([]Step, len(raw))
		ref := map[FileID]Mode{}
		for i, r := range raw {
			steps[i] = mkStep(r.File, r.X, 1)
			if r.X || ref[steps[i].File] != X {
				ref[steps[i].File] = steps[i].LockMode
			}
		}
		files, modes := NewTxn(1, 0, steps).LockNeedSorted()
		if len(files) != len(ref) || !slices.IsSorted(files) {
			return false
		}
		for i, f := range files {
			if ref[f] != modes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
