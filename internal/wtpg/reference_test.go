package wtpg

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"batchsched/internal/model"
)

// refGraph is the original map-based WTPG closure, kept as an executable
// specification for the slot/bitset implementation. It recomputes
// reachability from scratch on every probe, so it is obviously correct and
// hopelessly slow — exactly what a differential oracle should be.
type refGraph struct {
	txns  map[int64]*model.Txn
	order []int64
	edges map[[2]int64]*refEdge
}

type refEdge struct {
	a, b     int64
	wAB, wBA float64
	dir      Dir
}

func newRefGraph() *refGraph {
	return &refGraph{txns: map[int64]*model.Txn{}, edges: map[[2]int64]*refEdge{}}
}

func (rg *refGraph) add(t *model.Txn) {
	for _, id := range rg.order {
		u := rg.txns[id]
		if len(conflictFiles(t, u)) == 0 {
			continue
		}
		a, b := pairKey(t.ID, u.ID)
		ta, tb := t, u
		if ta.ID != a {
			ta, tb = u, t
		}
		wAB, _ := model.ConflictWeight(tb, ta)
		wBA, _ := model.ConflictWeight(ta, tb)
		rg.edges[[2]int64{a, b}] = &refEdge{a: a, b: b, wAB: wAB, wBA: wBA}
	}
	rg.txns[t.ID] = t
	rg.order = append(rg.order, t.ID)
}

func (rg *refGraph) remove(id int64) {
	delete(rg.txns, id)
	for i, x := range rg.order {
		if x == id {
			rg.order = append(rg.order[:i], rg.order[i+1:]...)
			break
		}
	}
	for k := range rg.edges {
		if k[0] == id || k[1] == id {
			delete(rg.edges, k)
		}
	}
}

// reach reports whether a non-empty directed path of determined edges runs
// from x to y, by plain DFS over the edge map.
func (rg *refGraph) reach(x, y int64) bool {
	seen := map[int64]bool{}
	var stack []int64
	push := func(v int64) {
		for _, e := range rg.edges {
			var to int64
			switch {
			case e.dir == AToB && e.a == v:
				to = e.b
			case e.dir == BToA && e.b == v:
				to = e.a
			default:
				continue
			}
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	push(x)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == y {
			return true
		}
		push(v)
	}
	return false
}

// orientAll mirrors Graph.OrientAll: apply the batch plus the Section-3.3
// closure, all or none.
func (rg *refGraph) orientAll(pairs [][2]int64) error {
	saved := map[[2]int64]Dir{}
	for k, e := range rg.edges {
		saved[k] = e.dir
	}
	if err := rg.apply(pairs); err != nil {
		for k, d := range saved {
			rg.edges[k].dir = d
		}
		return err
	}
	return nil
}

func (rg *refGraph) apply(pairs [][2]int64) error {
	for _, p := range pairs {
		a, b := pairKey(p[0], p[1])
		e, ok := rg.edges[[2]int64{a, b}]
		if !ok {
			return fmt.Errorf("ref: no edge between %d and %d", p[0], p[1])
		}
		want := AToB
		if p[0] == e.b {
			want = BToA
		}
		if e.dir == want {
			continue
		}
		if e.dir != Undetermined {
			return ErrDeadlock
		}
		if rg.reach(p[1], p[0]) {
			return ErrDeadlock
		}
		e.dir = want
	}
	for {
		changed := false
		for _, e := range rg.edges {
			if e.dir != Undetermined {
				continue
			}
			ab := rg.reach(e.a, e.b)
			ba := rg.reach(e.b, e.a)
			switch {
			case ab && ba:
				return ErrDeadlock
			case ab:
				e.dir = AToB
				changed = true
			case ba:
				e.dir = BToA
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// criticalPath mirrors Graph.CriticalPath with a memoized DFS.
func (rg *refGraph) criticalPath(w0 T0Weight) (float64, error) {
	state := map[int64]int{} // 0 new, 1 on stack, 2 done
	best := map[int64]float64{}
	var visit func(v int64) error
	visit = func(v int64) error {
		switch state[v] {
		case 1:
			return ErrDeadlock
		case 2:
			return nil
		}
		state[v] = 1
		b := w0(rg.txns[v])
		for _, e := range rg.edges {
			var u int64
			var w float64
			switch {
			case e.dir == AToB && e.b == v:
				u, w = e.a, e.wAB
			case e.dir == BToA && e.a == v:
				u, w = e.b, e.wBA
			default:
				continue
			}
			if err := visit(u); err != nil {
				return err
			}
			if x := best[u] + w; x > b {
				b = x
			}
		}
		best[v] = b
		state[v] = 2
		return nil
	}
	var ans float64
	for _, id := range rg.order {
		if err := visit(id); err != nil {
			return math.Inf(1), err
		}
		if best[id] > ans {
			ans = best[id]
		}
	}
	return ans, nil
}

// grantPairs mirrors Graph.GrantOrientations from the edge map: t must
// precede every transaction whose declared need on f conflicts with m on an
// edge that conflicts on f; a pair already ordered the other way deadlocks.
func (rg *refGraph) grantPairs(t *model.Txn, f model.FileID, m model.Mode) ([][2]int64, error) {
	var out [][2]int64
	for _, id := range rg.order {
		u := rg.txns[id]
		if id == t.ID || !slices.Contains(conflictFiles(t, u), f) {
			continue
		}
		if um, ok := u.NeedMode(f); !ok || um.Compatible(m) {
			continue
		}
		a, b := pairKey(t.ID, id)
		switch e := rg.edges[[2]int64{a, b}]; {
		case e.dir == Undetermined:
			out = append(out, [2]int64{t.ID, id})
		case (e.dir == AToB) != (a == t.ID):
			return nil, ErrDeadlock
		}
	}
	return out, nil
}

// clone copies the edge states; transactions are shared read-only.
func (rg *refGraph) clone() *refGraph {
	c := newRefGraph()
	for id, t := range rg.txns {
		c.txns[id] = t
	}
	c.order = append(c.order, rg.order...)
	for k, e := range rg.edges {
		ce := *e
		c.edges[k] = &ce
	}
	return c
}

// evaluate is the reference E(q): grant the request on a copy (its pairs
// plus the closure), +Inf on any deadlock, otherwise the copy's critical
// path.
func (rg *refGraph) evaluate(t *model.Txn, f model.FileID, m model.Mode, w0 T0Weight) float64 {
	pairs, err := rg.grantPairs(t, f, m)
	if err != nil {
		return math.Inf(1)
	}
	c := rg.clone()
	if err := c.orientAll(pairs); err != nil {
		return math.Inf(1)
	}
	v, err := c.criticalPath(w0)
	if err != nil {
		return math.Inf(1)
	}
	return v
}

func (rg *refGraph) dirSnapshot() map[[2]int64]Dir {
	out := map[[2]int64]Dir{}
	for k, e := range rg.edges {
		out[k] = e.dir
	}
	return out
}

// TestDifferentialClosure drives the production Graph and the map-based
// reference through the same random schedule of adds, removes and
// orientation batches, and demands identical orientation closures, identical
// ErrDeadlock decisions and identical critical paths at every step. This is
// the safety net under the bitset rewrite: any divergence in the incremental
// reachability maintenance shows up here as a direction or deadlock
// mismatch.
func TestDifferentialClosure(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			g := New()
			rg := newRefGraph()
			nextID := int64(1)
			addRandom := func() {
				k := 1 + r.Intn(3)
				files := make([]model.FileID, 0, k)
				for len(files) < k {
					f := model.FileID(r.Intn(5))
					dup := false
					for _, x := range files {
						dup = dup || x == f
					}
					if !dup {
						files = append(files, f)
					}
				}
				tx := randTxn(r, nextID, files...)
				nextID++
				g.Add(tx)
				rg.add(tx)
			}
			for g.Len() < 6 {
				addRandom()
			}
			check := func(op string) {
				t.Helper()
				got, want := dirSnapshot(g), rg.dirSnapshot()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("after %s: orientations diverge\n graph: %v\n ref:   %v", op, got, want)
				}
				cg, eg := g.CriticalPath(RemainingDemand)
				cr, er := rg.criticalPath(RemainingDemand)
				if (eg == nil) != (er == nil) {
					t.Fatalf("after %s: CriticalPath errors diverge: graph %v, ref %v", op, eg, er)
				}
				if eg == nil && math.Abs(cg-cr) > 1e-9 {
					t.Fatalf("after %s: CriticalPath diverges: graph %g, ref %g", op, cg, cr)
				}
			}
			check("setup")
			for step := 0; step < 80; step++ {
				switch op := r.Intn(10); {
				case op == 0 && g.Len() < 12:
					addRandom()
					check("add")
				case op == 1 && g.Len() > 2:
					victim := rg.order[r.Intn(len(rg.order))]
					g.Remove(victim)
					rg.remove(victim)
					check(fmt.Sprintf("remove T%d", victim))
				default:
					// A batch of 1-3 orientations over existing edges,
					// random direction.
					es := g.edgeSet()
					if len(es) == 0 {
						continue
					}
					np := 1 + r.Intn(3)
					pairs := make([][2]int64, 0, np)
					for i := 0; i < np; i++ {
						e := es[r.Intn(len(es))]
						p := [2]int64{e.a, e.b}
						if r.Intn(2) == 0 {
							p[0], p[1] = p[1], p[0]
						}
						pairs = append(pairs, p)
					}
					errG := g.OrientAll(pairs)
					errR := rg.orientAll(pairs)
					if (errG == nil) != (errR == nil) {
						t.Fatalf("OrientAll(%v): graph err %v, ref err %v", pairs, errG, errR)
					}
					check(fmt.Sprintf("orient %v", pairs))
				}
			}
		})
	}
}

// TestEvaluateMatchesReference checks LOW's E(q) values: on random graphs
// grown and shrunk by adds, removes (so slots are reused) and committed
// orientation batches, Evaluate must equal the reference E(q) within 1e-9
// for every (txn, file, mode) candidate, +Inf exactly when the reference
// deadlocks, and must leave every edge direction and reachability row as it
// found them.
func TestEvaluateMatchesReference(t *testing.T) {
	const files = 5
	var sawInf, sawRaise bool
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			g := New()
			rg := newRefGraph()
			nextID := int64(1)
			addRandom := func() {
				steps := make([]model.Step, 0, 3)
				for _, f := range r.Perm(files)[:1+r.Intn(3)] {
					c := float64(r.Intn(30)+1) / 10
					m := model.S
					if r.Intn(3) > 0 {
						m = model.X
					}
					steps = append(steps, model.Step{File: model.FileID(f), Write: m == model.X,
						LockMode: m, Cost: c, DeclaredCost: c})
				}
				tx := model.NewTxn(nextID, 0, steps)
				nextID++
				g.Add(tx)
				rg.add(tx)
			}
			for g.Len() < 8 {
				addRandom()
			}
			for step := 0; step < 30; step++ {
				switch op := r.Intn(6); {
				case op == 0 && g.Len() < 12:
					addRandom()
				case op == 1 && g.Len() > 3:
					victim := rg.order[r.Intn(len(rg.order))]
					g.Remove(victim)
					rg.remove(victim)
				default:
					es := g.edgeSet()
					if len(es) == 0 {
						continue
					}
					e := es[r.Intn(len(es))]
					p := [2]int64{e.a, e.b}
					if r.Intn(2) == 0 {
						p[0], p[1] = p[1], p[0]
					}
					errG := g.OrientAll([][2]int64{p})
					if errR := rg.orientAll([][2]int64{p}); (errG == nil) != (errR == nil) {
						t.Fatalf("OrientAll(%v): graph err %v, ref err %v", p, errG, errR)
					}
				}
			}
			base, err := rg.criticalPath(RemainingDemand)
			if err != nil {
				t.Fatalf("reference graph is cyclic: %v", err)
			}
			dirs, rows := dirSnapshot(g), reachSnapshot(g)
			for _, tx := range g.Txns() {
				for f := model.FileID(0); f < files; f++ {
					for _, m := range []model.Mode{model.S, model.X} {
						got := Evaluate(g, tx, f, m, RemainingDemand)
						want := rg.evaluate(tx, f, m, RemainingDemand)
						if math.IsInf(got, 1) != math.IsInf(want, 1) ||
							(!math.IsInf(want, 1) && math.Abs(got-want) > 1e-9) {
							t.Fatalf("E(T%d %v f%d) = %g, reference %g", tx.ID, m, f, got, want)
						}
						sawInf = sawInf || math.IsInf(want, 1)
						sawRaise = sawRaise || (!math.IsInf(want, 1) && want > base+1e-9)
						if !reflect.DeepEqual(dirSnapshot(g), dirs) || !reflect.DeepEqual(reachSnapshot(g), rows) {
							t.Fatalf("E(T%d %v f%d) changed the graph", tx.ID, m, f)
						}
					}
				}
			}
		})
	}
	if !sawInf || !sawRaise {
		t.Fatalf("candidates never deadlocked (%v) or never lengthened the critical path (%v): the check lost its power",
			sawInf, sawRaise)
	}
}

// reachSnapshot deep-copies the live reachability rows, keyed by transaction
// id so the comparison is slot-assignment independent.
func reachSnapshot(g *Graph) map[int64][]uint64 {
	out := map[int64][]uint64{}
	for id, s := range g.slots {
		out[id] = append([]uint64(nil), g.reach[s]...)
	}
	return out
}

// TestEvaluateLeavesGraphUnchanged pins the apply/undo contract of the
// clone-free E(q): after Evaluate returns — whether the speculative grant
// succeeded, deadlocked in GrantOrientations, or deadlocked during closure —
// every edge direction and every reachability row must be bit-for-bit what
// it was before.
func TestEvaluateLeavesGraphUnchanged(t *testing.T) {
	sawInf := false
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed + 1000))
		g := New()
		var txns []*model.Txn
		for id := int64(1); id <= 8; id++ {
			k := 1 + r.Intn(3)
			files := make([]model.FileID, 0, k)
			for len(files) < k {
				f := model.FileID(r.Intn(4))
				dup := false
				for _, x := range files {
					dup = dup || x == f
				}
				if !dup {
					files = append(files, f)
				}
			}
			tx := randTxn(r, id, files...)
			txns = append(txns, tx)
			g.Add(tx)
		}
		// Pre-orient a few edges so some evaluations hit determined state
		// and some close cycles.
		for i := 0; i < 6; i++ {
			es := g.edgeSet()
			if len(es) == 0 {
				break
			}
			e := es[r.Intn(len(es))]
			p := [2]int64{e.a, e.b}
			if r.Intn(2) == 0 {
				p[0], p[1] = p[1], p[0]
			}
			_ = g.OrientAll([][2]int64{{p[0], p[1]}})
		}
		for try := 0; try < 40; try++ {
			tx := txns[r.Intn(len(txns))]
			f := model.FileID(r.Intn(4))
			dirs := dirSnapshot(g)
			rows := reachSnapshot(g)
			v := Evaluate(g, tx, f, model.X, RemainingDemand)
			if math.IsInf(v, 1) {
				sawInf = true
			}
			if got := dirSnapshot(g); !reflect.DeepEqual(got, dirs) {
				t.Fatalf("seed %d: Evaluate(T%d, f%d) changed orientations:\n before %v\n after  %v",
					seed, tx.ID, f, dirs, got)
			}
			if got := reachSnapshot(g); !reflect.DeepEqual(got, rows) {
				t.Fatalf("seed %d: Evaluate(T%d, f%d) changed reachability rows", seed, tx.ID, f)
			}
		}
	}
	if !sawInf {
		t.Fatalf("random evaluations never hit a deadlock path; the undo-on-error branch went untested")
	}
}

// TestEvaluateUnchangedOnConstructedDeadlock drives the rollback path
// deterministically: T1->T2->T3 is fixed, then evaluating a grant that would
// need T3->T1 must report +Inf and leave the graph untouched.
func TestEvaluateUnchangedOnConstructedDeadlock(t *testing.T) {
	g := New()
	t1 := randTxn(rand.New(rand.NewSource(1)), 1, 0, 1)
	t2 := randTxn(rand.New(rand.NewSource(2)), 2, 1, 2)
	t3 := randTxn(rand.New(rand.NewSource(3)), 3, 2, 0)
	g.Add(t1)
	g.Add(t2)
	g.Add(t3)
	if err := g.OrientAll([][2]int64{{1, 2}, {2, 3}}); err != nil {
		t.Fatalf("OrientAll: %v", err)
	}
	dirs := dirSnapshot(g)
	rows := reachSnapshot(g)
	// Granting T3 file 0 would orient T3->T1, closing the cycle.
	if v := Evaluate(g, t3, 0, model.X, RemainingDemand); !math.IsInf(v, 1) {
		t.Fatalf("Evaluate = %g, want +Inf", v)
	}
	if got := dirSnapshot(g); !reflect.DeepEqual(got, dirs) {
		t.Fatalf("deadlocked Evaluate changed orientations:\n before %v\n after  %v", dirs, got)
	}
	if got := reachSnapshot(g); !reflect.DeepEqual(got, rows) {
		t.Fatalf("deadlocked Evaluate changed reachability rows")
	}
}
