package wtpg

import (
	"math"
	"math/rand"
	"testing"

	"batchsched/internal/model"
)

// chainTxns builds a path of n transactions T1-T2-...-Tn where adjacent
// pairs conflict on a dedicated file. Node i (1-based) writes file (i-1)
// with cost x[i-1] and file i with cost y[i-1]; file k is shared by nodes k
// and k+1. Endpoints skip their missing side.
func chainTxns(x, y []float64) []*model.Txn {
	n := len(x)
	out := make([]*model.Txn, n)
	for i := 0; i < n; i++ {
		var steps []model.Step
		if i > 0 {
			steps = append(steps, model.Step{File: model.FileID(i - 1), Write: true, LockMode: model.X, Cost: x[i], DeclaredCost: x[i]})
		}
		if i < n-1 {
			steps = append(steps, model.Step{File: model.FileID(i), Write: true, LockMode: model.X, Cost: y[i], DeclaredCost: y[i]})
		}
		out[i] = model.NewTxn(int64(i+1), 0, steps)
	}
	return out
}

func TestChainFormShapes(t *testing.T) {
	files := map[string]model.FileID{"u": 0, "v": 1, "w": 2}

	// Path T1-T2-T3: chain form.
	g := New()
	g.Add(txn(1, "w(u:1)", files))
	g.Add(txn(2, "w(u:1)->w(v:1)", files))
	g.Add(txn(3, "w(v:1)", files))
	if !g.ChainForm() {
		t.Error("path must be chain form")
	}

	// Adding a triangle-closing transaction breaks chain form (cycle).
	closer := txn(4, "w(u:1)->w(v:1)", files)
	if g.ChainFormAfterAdd(closer) {
		t.Error("closing a cycle must break chain form")
	}
	if g.Len() != 3 {
		t.Error("ChainFormAfterAdd must not mutate the graph")
	}

	// A star (degree 3 at the hub) is not chain form.
	h := New()
	h.Add(txn(1, "w(u:1)->w(v:1)->w(w:1)", files))
	h.Add(txn(2, "w(u:1)", files))
	h.Add(txn(3, "w(v:1)", files))
	if !h.ChainForm() {
		t.Error("hub with degree 2 is still chain form")
	}
	h.Add(txn(4, "w(w:1)", files))
	if h.ChainForm() {
		t.Error("degree-3 hub must not be chain form")
	}

	// Disjoint paths and singletons are chain form.
	d := New()
	d.Add(txn(1, "w(u:1)", files))
	d.Add(txn(2, "w(u:1)", files))
	d.Add(txn(3, "w(v:1)", files))
	d.Add(txn(4, "w(v:1)", files))
	d.Add(txn(5, "w(w:1)", files))
	if !d.ChainForm() {
		t.Error("disjoint paths plus singleton must be chain form")
	}

	// Empty graph is trivially chain form.
	if !New().ChainForm() {
		t.Error("empty graph must be chain form")
	}
}

func TestChainFormTwoTxnCycleIsFine(t *testing.T) {
	// Two transactions conflicting on two files share ONE edge (conflicts
	// merge per pair), so they are still a path of length 1.
	files := map[string]model.FileID{"u": 0, "v": 1}
	g := New()
	g.Add(txn(1, "w(u:1)->w(v:1)", files))
	g.Add(txn(2, "w(u:1)->w(v:1)", files))
	if !g.ChainForm() {
		t.Error("a single pair conflicting on two files is chain form")
	}
}

// TestFig3OptimalOrder encodes the worked example of the paper's Fig. 3: in
// the chain T1-T2-T3 the order W = {T1->T2, T3->T2} yields the shortest
// critical path ({T0->T1->T2}).
func TestFig3OptimalOrder(t *testing.T) {
	files := map[string]model.FileID{"u": 0, "v": 1}
	t1 := txn(1, "w(u:5)", files)
	t2 := txn(2, "w(u:1)->w(v:1)", files)
	t3 := txn(3, "w(v:6)", files)
	g := New()
	g.Add(t1)
	g.Add(t2)
	g.Add(t3)
	// Weights: w(T1->T2)=2, w(T2->T1)=5, w(T3->T2)=1, w(T2->T3)=6.
	for _, c := range []struct {
		from, to int64
		want     float64
	}{{1, 2, 2}, {2, 1, 5}, {3, 2, 1}, {2, 3, 6}} {
		e, _ := g.edgeBetween(c.from, c.to)
		w := e.wAB
		if c.from == e.b {
			w = e.wBA
		}
		if w != c.want {
			t.Fatalf("w(T%d->T%d) = %g, want %g", c.from, c.to, w, c.want)
		}
	}
	r := map[int64]float64{1: 3, 2: 4, 3: 2}
	w0 := func(tx *model.Txn) float64 { return r[tx.ID] }

	plan := &Plan{}
	if err := g.OptimalChainOrientationInto(w0, plan); err != nil {
		t.Fatal(err)
	}
	// Optimal: T1->T2 and T3->T2, critical path T0->T1->T2 = 3+2 = 5.
	if plan.Value != 5 {
		t.Errorf("plan value = %g, want 5", plan.Value)
	}
	if ok, found := plan.Precedes(1, 2); !found || !ok {
		t.Error("W must orient T1->T2")
	}
	if ok, found := plan.Precedes(3, 2); !found || !ok {
		t.Error("W must orient T3->T2")
	}
	// Paper: a request by T2 conflicting with T1 is inconsistent with W.
	if ok, _ := plan.Precedes(2, 1); ok {
		t.Error("T2->T1 must be inconsistent with W")
	}
	if _, found := plan.Precedes(1, 3); found {
		t.Error("no edge between T1 and T3")
	}
	if len(plan.pred) != 2 {
		t.Errorf("plan edges = %d, want 2", len(plan.pred))
	}
}

func TestOptimalChainRespectsFixedEdges(t *testing.T) {
	files := map[string]model.FileID{"u": 0, "v": 1}
	t1 := txn(1, "w(u:5)", files)
	t2 := txn(2, "w(u:1)->w(v:1)", files)
	t3 := txn(3, "w(v:6)", files)
	g := New()
	g.Add(t1)
	g.Add(t2)
	g.Add(t3)
	// Force the bad direction T2->T1; the optimizer must keep it.
	if err := g.OrientAll([][2]int64{{2, 1}}); err != nil {
		t.Fatal(err)
	}
	r := map[int64]float64{1: 3, 2: 4, 3: 2}
	plan := &Plan{}
	if err := g.OptimalChainOrientationInto(func(tx *model.Txn) float64 { return r[tx.ID] }, plan); err != nil {
		t.Fatal(err)
	}
	if ok, found := plan.Precedes(2, 1); !found || !ok {
		t.Error("plan must keep the fixed edge T2->T1")
	}
	// With T2->T1 fixed, the path starting at T2 (r2 + w(T2->T1) = 4+5 = 9)
	// is unavoidable. Orienting T3->T2 adds max(r3+1+5)=8 < 9; orienting
	// T2->T3 adds r2+6=10. So the optimum is 9.
	if plan.Value != 9 {
		t.Errorf("plan value = %g, want 9", plan.Value)
	}
}

func TestOptimalChainErrorsOffChainForm(t *testing.T) {
	files := map[string]model.FileID{"u": 0, "v": 1, "w": 2}
	g := New()
	g.Add(txn(1, "w(u:1)->w(v:1)->w(w:1)", files))
	g.Add(txn(2, "w(u:1)", files))
	g.Add(txn(3, "w(v:1)", files))
	g.Add(txn(4, "w(w:1)", files))
	if err := g.OptimalChainOrientationInto(RemainingDemand, &Plan{}); err == nil {
		t.Fatal("non-chain graph must error")
	}
}

func TestOptimalChainSingletons(t *testing.T) {
	files := map[string]model.FileID{"u": 0, "v": 1}
	g := New()
	g.Add(txn(1, "w(u:3)", files))
	g.Add(txn(2, "w(v:7)", files))
	plan := &Plan{}
	if err := g.OptimalChainOrientationInto(RemainingDemand, plan); err != nil {
		t.Fatal(err)
	}
	if plan.Value != 7 {
		t.Errorf("value = %g, want 7 (max T0 weight)", plan.Value)
	}
	if len(plan.pred) != 0 {
		t.Errorf("edges = %d, want 0", len(plan.pred))
	}
}

// bruteForceOptimal enumerates every orientation of the undetermined edges
// and returns the minimal critical-path value.
func bruteForceOptimal(g *Graph, w0 T0Weight) float64 {
	var free []*edge
	for _, e := range g.edgeSet() {
		if e.dir == Undetermined {
			free = append(free, e)
		}
	}
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == len(free) {
			v, err := g.CriticalPath(w0)
			if err == nil && v < best {
				best = v
			}
			return
		}
		free[i].dir = AToB
		rec(i + 1)
		free[i].dir = BToA
		rec(i + 1)
		free[i].dir = Undetermined
	}
	rec(0)
	return best
}

// Property: the chain optimizer matches brute force on random chains, with
// and without pre-oriented edges.
func TestOptimalChainMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(8)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(9))
			y[i] = float64(rng.Intn(9))
		}
		txns := chainTxns(x, y)
		g := New()
		for _, tx := range txns {
			g.Add(tx)
		}
		// Randomly fix some edges (respecting acyclicity: on a path any
		// orientation set is acyclic, so OrientAll never fails here).
		for i := 0; i < n-1; i++ {
			switch rng.Intn(3) {
			case 0:
				if err := g.OrientAll([][2]int64{{txns[i].ID, txns[i+1].ID}}); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := g.OrientAll([][2]int64{{txns[i+1].ID, txns[i].ID}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		r := make(map[int64]float64)
		for _, tx := range txns {
			r[tx.ID] = float64(rng.Intn(12))
		}
		w0 := func(tx *model.Txn) float64 { return r[tx.ID] }

		want := bruteForceOptimal(g, w0)
		plan := &Plan{}
		if err := g.OptimalChainOrientationInto(w0, plan); err != nil {
			t.Fatal(err)
		}
		if plan.Value != want {
			t.Fatalf("trial %d: DP value %g != brute force %g (n=%d x=%v y=%v r=%v)",
				trial, plan.Value, want, n, x, y, r)
		}
		// The plan's own orientation must realize its value.
		check := g.clone()
		for i := 0; i < n-1; i++ {
			a, b := txns[i].ID, txns[i+1].ID
			if ok, found := plan.Precedes(a, b); found && ok {
				if err := check.OrientAll([][2]int64{{a, b}}); err != nil {
					t.Fatal(err)
				}
			} else if found {
				if err := check.OrientAll([][2]int64{{b, a}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		v, err := check.CriticalPath(w0)
		if err != nil {
			t.Fatal(err)
		}
		if v != plan.Value {
			t.Fatalf("trial %d: plan value %g but realized critical path %g", trial, plan.Value, v)
		}
	}
}

func TestChainFormAfterAddComponents(t *testing.T) {
	// Two disjoint pairs: A-B conflict on x, C-D conflict on y.
	files := map[string]model.FileID{"x": 0, "y": 1, "p": 2, "q": 3, "r": 4}
	a := txn(1, "w(x:1)->w(p:1)", files)
	b := txn(2, "w(x:1)->w(q:1)", files)
	c := txn(3, "w(y:1)->w(r:1)", files)
	d := txn(4, "w(y:1)", files)
	g := New()
	g.Add(a)
	g.Add(b)
	g.Add(c)
	g.Add(d)
	if !g.ChainForm() {
		t.Fatal("two disjoint pairs are chain form")
	}
	// Bridging different components (A via p, C via r) keeps chain form:
	// it joins the two paths end to end.
	bridge := txn(5, "w(p:1)->w(r:1)", files)
	if !g.ChainFormAfterAdd(bridge) {
		t.Error("bridging two components at their endpoints must keep chain form")
	}
	// Joining two nodes of the SAME component (A via p, B via q) closes a
	// cycle: refused via the same-component test.
	closer := txn(6, "w(p:1)->w(q:1)", files)
	if g.ChainFormAfterAdd(closer) {
		t.Error("joining two endpoints of one path closes a cycle")
	}
	// Neither probe mutated the graph.
	if g.Len() != 4 {
		t.Errorf("graph mutated: len = %d", g.Len())
	}
}
