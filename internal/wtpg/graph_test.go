package wtpg

import (
	"math"
	"testing"

	"batchsched/internal/model"
)

// txn builds a transaction from the pattern mini-language with every symbol
// mapped through the binding.
func txn(id int64, pattern string, binding map[string]model.FileID) *model.Txn {
	p := model.MustParsePattern(pattern)
	steps, err := p.Instantiate(binding)
	if err != nil {
		panic(err)
	}
	return model.NewTxn(id, 0, steps)
}

// fig2Graph builds the WTPG of the paper's Fig. 2-(b): T1 and T2 just
// started, conflicting on file A.
func fig2Graph() (*Graph, *model.Txn, *model.Txn) {
	t1 := txn(1, "r(A:1)->r(B:3)->w(A:1)", map[string]model.FileID{"A": 0, "B": 1})
	t2 := txn(2, "r(C:1)->w(A:1)->w(C:1)", map[string]model.FileID{"A": 0, "C": 2})
	g := New()
	g.Add(t1)
	g.Add(t2)
	return g, t1, t2
}

func TestFig2ConflictEdge(t *testing.T) {
	g, t1, t2 := fig2Graph()
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	// Conflict edge exists and is undetermined.
	e, ok := g.edgeBetween(t1.ID, t2.ID)
	if !ok || e.dir != Undetermined {
		t.Fatalf("edge = %+v ok=%v, want undetermined conflict edge", e, ok)
	}
	// Weight {T1->T2} = 2 (T2's remaining cost from its blocked step
	// w2(A:1)); weight {T2->T1} = 5.
	if e.wAB != 2 {
		t.Errorf("w(T1->T2) = %g, want 2", e.wAB)
	}
	if e.wBA != 5 {
		t.Errorf("w(T2->T1) = %g, want 5", e.wBA)
	}
}

func TestAddPanicsOnDuplicate(t *testing.T) {
	g, t1, _ := fig2Graph()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate Add")
		}
	}()
	g.Add(t1)
}

func TestRemoveDropsEdges(t *testing.T) {
	g, t1, t2 := fig2Graph()
	g.Remove(t1.ID)
	if g.Has(t1.ID) || !g.Has(t2.ID) || g.Len() != 1 {
		t.Fatal("Remove did not drop exactly T1")
	}
	if _, ok := g.edgeBetween(t1.ID, t2.ID); ok {
		t.Fatal("edge must be gone after Remove")
	}
	g.Remove(t1.ID) // no-op
	if g.Len() != 1 {
		t.Fatal("double Remove changed the graph")
	}
}

func TestOrientAndCriticalPath(t *testing.T) {
	g, t1, t2 := fig2Graph()
	if err := g.OrientAll([][2]int64{{t1.ID, t2.ID}}); err != nil {
		t.Fatal(err)
	}
	if e, _ := g.edgeBetween(t1.ID, t2.ID); e.dir != AToB {
		t.Fatalf("orientation = %v, want T1->T2 (AToB)", e.dir)
	}
	// Critical path with fresh T0 weights: T0->T1 (5) -> T2 (2) = 7
	// beats T0->T2 (3).
	v, err := g.CriticalPath(RemainingDemand)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Errorf("critical path = %g, want 7", v)
	}
	// Re-orienting the same way is a no-op; the reverse way deadlocks.
	if err := g.OrientAll([][2]int64{{t1.ID, t2.ID}}); err != nil {
		t.Errorf("idempotent orient failed: %v", err)
	}
	if err := g.OrientAll([][2]int64{{t2.ID, t1.ID}}); err != ErrDeadlock {
		t.Errorf("conflicting orient = %v, want ErrDeadlock", err)
	}
}

func TestOrientMissingEdge(t *testing.T) {
	g, t1, _ := fig2Graph()
	t3 := txn(3, "w(Z:1)", map[string]model.FileID{"Z": 99})
	g.Add(t3)
	if err := g.OrientAll([][2]int64{{t1.ID, t3.ID}}); err == nil {
		t.Fatal("orienting a non-existent edge must error")
	}
}

func TestCriticalPathIgnoresConflictEdges(t *testing.T) {
	g, t1, t2 := fig2Graph()
	// No orientations: critical path = max T0 weight = 5 (T1).
	v, err := g.CriticalPath(RemainingDemand)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("critical path = %g, want 5 (conflict edges ignored)", v)
	}
	_ = t1
	_ = t2
}

func TestT0WeightsShrinkAsScheduleProceeds(t *testing.T) {
	g, t1, _ := fig2Graph()
	t1.StepIndex = 2 // first two steps done; only w1(A:1) remains
	if got := RemainingDemand(t1); got != 1 {
		t.Errorf("RemainingDemand = %g, want 1", got)
	}
	v, err := g.CriticalPath(RemainingDemand)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 { // now T2's fresh weight 3 dominates
		t.Errorf("critical path = %g, want 3", v)
	}
}

// fig6Graph reproduces the structure of the paper's Fig. 6-(a): precedence
// edges T4->T5 and T6->T7 already determined, conflict edges (T5,T6) and
// (T4,T7) undetermined, with weights chosen to match the worked example
// (w(T4->T7) = 10, E(q) = 10, E(p) = 1).
func fig6Graph() (*Graph, map[int64]*model.Txn) {
	files := map[string]model.FileID{"a": 0, "b": 1, "c": 2, "d": 3}
	t4 := txn(4, "w(a:1)->w(d:1)", files)
	t5 := txn(5, "w(a:0)->w(b:1)", files)
	t6 := txn(6, "w(b:1)->w(c:1)", files)
	t7 := txn(7, "w(d:9)->w(c:1)", files)
	g := New()
	g.Add(t4)
	g.Add(t5)
	g.Add(t6)
	g.Add(t7)
	if err := g.OrientAll([][2]int64{{4, 5}}); err != nil {
		panic(err)
	}
	if err := g.OrientAll([][2]int64{{6, 7}}); err != nil {
		panic(err)
	}
	return g, map[int64]*model.Txn{4: t4, 5: t5, 6: t6, 7: t7}
}

func zeroW(*model.Txn) float64 { return 0 }

func TestFig6Weights(t *testing.T) {
	g, _ := fig6Graph()
	checks := []struct {
		from, to int64
		want     float64
	}{
		{4, 5, 1}, {5, 6, 2}, {6, 5, 1}, {6, 7, 1}, {4, 7, 10},
	}
	for _, c := range checks {
		e, ok := g.edgeBetween(c.from, c.to)
		if !ok {
			t.Errorf("no edge between T%d and T%d", c.from, c.to)
			continue
		}
		w := e.wAB
		if c.from == e.b {
			w = e.wBA
		}
		if w != c.want {
			t.Errorf("w(T%d->T%d) = %g, want %g", c.from, c.to, w, c.want)
		}
	}
}

func TestFig6EvaluateQ(t *testing.T) {
	// q: T5 requests the lock on file b (conflicting with T6). Granting it
	// creates the path T4->T5->T6->T7, which forces (T4,T7) to T4->T7
	// (weight 10); the critical path is then 10. (Paper: E(q) = 10.)
	g, ts := fig6Graph()
	got := Evaluate(g, ts[5], 1, model.X, zeroW)
	if got != 10 {
		t.Errorf("E(q) = %g, want 10", got)
	}
	// The evaluation must not mutate the original graph.
	if e, _ := g.edgeBetween(5, 6); e.dir != Undetermined {
		t.Error("Evaluate mutated the graph")
	}
}

func TestFig6EvaluateP(t *testing.T) {
	// p: T6 requests the lock on file b. Granting it orients T6->T5; the
	// remaining conflict edge (T4,T7) is ignored, so the critical path is 1.
	// (Paper: E(p) = 1.)
	g, ts := fig6Graph()
	got := Evaluate(g, ts[6], 1, model.X, zeroW)
	if got != 1 {
		t.Errorf("E(p) = %g, want 1", got)
	}
}

func TestFig6ClosureAfterGrant(t *testing.T) {
	g, ts := fig6Graph()
	if err := g.Grant(ts[5], 1, model.X); err != nil {
		t.Fatal(err)
	}
	if e, _ := g.edgeBetween(4, 7); e.dir != AToB {
		t.Fatalf("closure must orient (T4,T7) as T4->T7; got %+v", e)
	}
	v, err := g.CriticalPath(zeroW)
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Errorf("critical path after grant = %g, want 10", v)
	}
}

func TestGrantDetectsDeadlock(t *testing.T) {
	// Two transactions conflicting on two files; grant them one file each in
	// opposite orders: the second grant must fail with ErrDeadlock.
	files := map[string]model.FileID{"d": 0, "e": 1}
	a := txn(1, "w(d:1)->w(e:1)", files)
	b := txn(2, "w(e:1)->w(d:1)", files)
	g := New()
	g.Add(a)
	g.Add(b)
	if err := g.Grant(a, 0, model.X); err != nil {
		t.Fatal(err)
	}
	if err := g.Grant(b, 1, model.X); err != ErrDeadlock {
		t.Fatalf("second grant = %v, want ErrDeadlock", err)
	}
	// Graph unchanged by the failed grant: (a,b) still oriented a->b only.
	if e, _ := g.edgeBetween(1, 2); e.dir != AToB {
		t.Fatalf("failed grant mutated the edge: %+v", e)
	}
	// Evaluate returns +Inf for the deadlocking request.
	if v := Evaluate(g, b, 1, model.X, zeroW); !math.IsInf(v, 1) {
		t.Errorf("E(deadlocking q) = %g, want +Inf", v)
	}
}

func TestGrantIdempotentForHolder(t *testing.T) {
	g, t1, t2 := fig2Graph()
	if err := g.Grant(t1, 0, model.X); err != nil {
		t.Fatal(err)
	}
	// Granting the same file again determines nothing new.
	pairs, err := g.GrantOrientations(t1, 0, model.X)
	if err != nil || len(pairs) != 0 {
		t.Errorf("GrantOrientations after grant = %v, %v; want empty, nil", pairs, err)
	}
	_ = t2
}

func TestGrantOnUnsharedFileDeterminesNothing(t *testing.T) {
	g, t1, _ := fig2Graph()
	pairs, err := g.GrantOrientations(t1, 1, model.S) // file B: only T1 touches it
	if err != nil || len(pairs) != 0 {
		t.Errorf("grant on private file: pairs=%v err=%v", pairs, err)
	}
}

// clone returns a deep copy of the graph sharing the (immutable)
// transaction declarations, for the brute-force reference tests that try
// every orientation on a copy. The hot path (Evaluate) speculates on the
// live graph instead.
func (g *Graph) clone() *Graph {
	c := New()
	for _, t := range g.order {
		s := c.allocSlot(t.ID)
		c.txns[t.ID] = t
		c.txnAt[s] = t
		c.order = append(c.order, t)
	}
	for _, e := range g.edgeSet() {
		ce := &edge{a: e.a, b: e.b, sa: c.slots[e.a], sb: c.slots[e.b],
			wAB: e.wAB, wBA: e.wBA, dir: e.dir,
			files: append([]model.FileID(nil), e.files...)}
		c.insertNeighbor(ce.sa, e.b, ce)
		c.insertNeighbor(ce.sb, e.a, ce)
	}
	c.edgesDirty = true
	for s, lv := range c.live {
		if lv {
			c.recomputeRow(s)
		}
	}
	return c
}

func TestCloneIsDeep(t *testing.T) {
	g, t1, t2 := fig2Graph()
	c := g.clone()
	if err := c.OrientAll([][2]int64{{t1.ID, t2.ID}}); err != nil {
		t.Fatal(err)
	}
	if e, _ := g.edgeBetween(t1.ID, t2.ID); e.dir != Undetermined {
		t.Fatal("orienting the clone mutated the original")
	}
	c.Remove(t1.ID)
	if !g.Has(t1.ID) {
		t.Fatal("removing from the clone mutated the original")
	}
}

func TestSharedReadersDoNotConflict(t *testing.T) {
	files := map[string]model.FileID{"A": 0}
	a := txn(1, "r(A:2)", files)
	b := txn(2, "r(A:3)", files)
	g := New()
	g.Add(a)
	g.Add(b)
	if _, ok := g.edgeBetween(1, 2); ok {
		t.Fatal("S-S accesses must not create a conflict edge")
	}
}

func TestThreeWayClosureChain(t *testing.T) {
	// a->b and b->c determined; conflict edge (a,c) must be forced a->c.
	files := map[string]model.FileID{"x": 0, "y": 1, "z": 2}
	a := txn(1, "w(x:1)->w(z:1)", files)
	b := txn(2, "w(x:1)->w(y:1)", files)
	c := txn(3, "w(y:1)->w(z:1)", files)
	g := New()
	g.Add(a)
	g.Add(b)
	g.Add(c)
	if err := g.OrientAll([][2]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := g.OrientAll([][2]int64{{2, 3}}); err != nil {
		t.Fatal(err)
	}
	if e, _ := g.edgeBetween(1, 3); e.dir != AToB {
		t.Fatalf("closure: (a,c) = %+v, want 1->3", e)
	}
	// And orienting against the closed edge deadlocks.
	if err := g.OrientAll([][2]int64{{3, 1}}); err != ErrDeadlock {
		t.Errorf("got %v, want ErrDeadlock", err)
	}
}

func TestOrientAllAtomicity(t *testing.T) {
	files := map[string]model.FileID{"x": 0, "y": 1}
	a := txn(1, "w(x:1)->w(y:1)", files)
	b := txn(2, "w(x:1)->w(y:2)", files)
	g := New()
	g.Add(a)
	g.Add(b)
	// A batch that both orients a->b and b->a must fail and leave the edge
	// untouched.
	err := g.OrientAll([][2]int64{{1, 2}, {2, 1}})
	if err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if e, _ := g.edgeBetween(1, 2); e.dir != Undetermined {
		t.Fatal("failed OrientAll mutated the graph")
	}
}

func TestTxnsInsertionOrder(t *testing.T) {
	g := New()
	files := map[string]model.FileID{"A": 0}
	for i := int64(5); i >= 1; i-- {
		g.Add(txn(i, "r(A:1)", files))
	}
	ts := g.Txns()
	for i, tx := range ts {
		if tx.ID != int64(5-i) {
			t.Fatalf("Txns order = %v", ts)
		}
	}
}
