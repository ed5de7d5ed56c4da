package wtpg

import (
	"fmt"
	"math"
	"sort"

	"batchsched/internal/model"
)

// resetBools clears and resizes a slot-indexed scratch marker.
func resetBools(buf *[]bool, n int) []bool {
	b := *buf
	if cap(b) < n {
		b = make([]bool, n)
	} else {
		b = b[:n]
		for i := range b {
			b[i] = false
		}
	}
	*buf = b
	return b
}

// resetFloats resizes a scratch float slice without clearing (callers
// overwrite every element).
func resetFloats(buf *[]float64, n int) []float64 {
	b := *buf
	if cap(b) < n {
		b = make([]float64, n)
	} else {
		b = b[:n]
	}
	*buf = b
	return b
}

// ChainForm reports whether the WTPG is in "chain form": every transaction
// conflicts only with its adjacent nodes, i.e. the undirected conflict graph
// is a disjoint union of simple paths (max degree 2, no cycles). GOW only
// admits transactions that keep the graph in this form, because the optimal
// serializable order is then computable in polynomial time.
func (g *Graph) ChainForm() bool {
	// Degree check (slot order: the outcome is order-independent).
	for s, lv := range g.live {
		if lv && len(g.nbrs[s]) > 2 {
			return false
		}
	}
	// Cycle check on the undirected conflict graph: a forest has
	// |edges| = |nodes| - |components| for every component; equivalently a
	// component with as many edges as nodes contains a cycle.
	visited := resetBools(&g.visited, len(g.ids))
	for ss, lv := range g.live {
		if !lv || visited[ss] {
			continue
		}
		nodes, edges := 0, 0
		g.stack = append(g.stack[:0], ss)
		visited[ss] = true
		for len(g.stack) > 0 {
			v := g.stack[len(g.stack)-1]
			g.stack = g.stack[:len(g.stack)-1]
			nodes++
			for _, e := range g.nbrs[v] {
				edges++ // counted from both sides; halve below
				u := e.sa
				if u == v {
					u = e.sb
				}
				if !visited[u] {
					visited[u] = true
					g.stack = append(g.stack, u)
				}
			}
		}
		if edges/2 >= nodes && nodes > 1 {
			return false
		}
	}
	return true
}

// ChainFormAfterAdd reports whether the graph would still be in chain form
// after adding t (GOW's Phase 0 admission test). The graph is not modified.
// Assuming the graph is currently in chain form, adding t keeps it so iff t
// conflicts with at most two residents, each prospective neighbor currently
// has degree <= 1 (it would become an interior node), and — when there are
// two neighbors — they lie in different components (joining the same path's
// two endpoints would close a cycle). This is O(active + component) and
// runs on every admission retry, so it must not clone the graph.
func (g *Graph) ChainFormAfterAdd(t *model.Txn) bool {
	var nbrs [2]int64
	n := 0
	// Slot order, not insertion order: the outcome (a set test) is
	// order-independent, and the slot scan needs no map lookups.
	for s, u := range g.txnAt {
		if !g.live[s] {
			continue
		}
		if declConflict(t, u) {
			if n == 2 {
				return false
			}
			nbrs[n] = u.ID
			n++
		}
	}
	for _, u := range nbrs[:n] {
		if len(g.nbrs[g.slots[u]]) > 1 {
			return false
		}
	}
	if n == 2 && g.sameComponent(nbrs[0], nbrs[1]) {
		return false
	}
	return true
}

// sameComponent reports whether x and y lie in the same undirected
// component (the graph is a union of paths, so this walks at most one
// path).
func (g *Graph) sameComponent(x, y int64) bool {
	sx, sy := g.slots[x], g.slots[y]
	mark := resetBools(&g.mark, len(g.ids))
	mark[sx] = true
	g.stack = append(g.stack[:0], sx)
	for len(g.stack) > 0 {
		v := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		if v == sy {
			return true
		}
		for _, e := range g.nbrs[v] {
			u := e.sa
			if u == v {
				u = e.sb
			}
			if !mark[u] {
				mark[u] = true
				g.stack = append(g.stack, u)
			}
		}
	}
	return false
}

// Plan is a full serializable order W for a chain-form WTPG: an orientation
// of every edge, chosen to minimize the critical path from T0 to Tf. A Plan
// can be reused across OptimalChainOrientationInto calls; its edge storage
// is a sorted slice, so refilling it allocates nothing at steady state.
type Plan struct {
	// Value is the critical-path length of the WTPG under W.
	Value float64
	pred  []planEdge // sorted by (a, b)
}

// planEdge records the chosen predecessor for one canonical pair (a < b).
type planEdge struct {
	a, b, winner int64
}

func (p *Plan) reset() {
	p.Value = 0
	p.pred = p.pred[:0]
}

// sortPred orders pred by (a, b); insertion sort keeps it reflection- and
// allocation-free (plans hold at most one edge per active transaction).
func (p *Plan) sortPred() {
	es := p.pred
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && (es[j].a > e.a || (es[j].a == e.a && es[j].b > e.b)) {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}

// Precedes reports whether W orders from before to. The second result is
// false when the plan has no edge between the pair.
func (p *Plan) Precedes(from, to int64) (bool, bool) {
	a, b := pairKey(from, to)
	i := sort.Search(len(p.pred), func(i int) bool {
		pe := &p.pred[i]
		return pe.a > a || (pe.a == a && pe.b >= b)
	})
	if i < len(p.pred) && p.pred[i].a == a && p.pred[i].b == b {
		return p.pred[i].winner == from, true
	}
	return false, false
}

// chainScratch holds the per-component working arrays of the chain
// optimizer, reused across calls.
type chainScratch struct {
	nodes  []int   // unordered component slots
	path   []*edge // path[i] joins comp[i] and comp[i+1]
	r      []float64
	edges  []chainEdge
	cands  []float64
	sf, sb []float64
	fromFf []bool
	fromFb []bool
	dirs   []bool
}

// OptimalChainOrientationInto computes into plan the full serializable
// order W that minimizes the critical path of a chain-form WTPG (GOW's
// Phase 2), respecting already-determined precedence edges. It runs in
// O(m² log m) per chain component via a threshold search over the O(m²)
// candidate critical-path values with an O(m) feasibility DP — matching
// the paper's "O((Number of Nodes)²)" bound up to the log factor. The plan
// is caller-owned, so per-request callers (GOW) keep and reuse it and the
// evaluation allocates nothing at steady state.
//
// It returns an error when the graph is not in chain form.
func (g *Graph) OptimalChainOrientationInto(w0 T0Weight, plan *Plan) error {
	if !g.ChainForm() {
		return fmt.Errorf("wtpg: graph is not in chain form")
	}
	plan.reset()
	// Slot order: components are disjoint and the plan is sorted at the
	// end, so the visit order cannot affect the result.
	visited := resetBools(&g.visited, len(g.ids))
	for start, lv := range g.live {
		if !lv || visited[start] {
			continue
		}
		comp := g.pathComponent(start)
		for _, s := range comp {
			visited[s] = true
		}
		if value := g.solveChain(comp, w0, plan); value > plan.Value {
			plan.Value = value
		}
	}
	plan.sortPred()
	return nil
}

// pathComponent returns the slots of start's component in path order,
// beginning at the endpoint with the smaller transaction ID (for
// determinism), and records the edge joining each consecutive pair in
// g.cs.path. For a singleton it returns just the node. The returned slice
// and g.cs.path are scratch, valid until the next call.
func (g *Graph) pathComponent(start int) []int {
	// Collect the component.
	mark := resetBools(&g.mark, len(g.ids))
	nodes := g.cs.nodes[:0]
	mark[start] = true
	g.stack = append(g.stack[:0], start)
	for len(g.stack) > 0 {
		v := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		nodes = append(nodes, v)
		for _, e := range g.nbrs[v] {
			u := e.sa
			if u == v {
				u = e.sb
			}
			if !mark[u] {
				mark[u] = true
				g.stack = append(g.stack, u)
			}
		}
	}
	g.cs.nodes = nodes
	g.cs.path = g.cs.path[:0]
	if len(nodes) == 1 {
		return nodes
	}
	// Find endpoints (degree 1 within the component; the component is a
	// path) and walk from the one with the smallest ID, capturing the edge
	// taken at each hop.
	first := -1
	for _, v := range nodes {
		if len(g.nbrs[v]) == 1 && (first < 0 || g.ids[v] < g.ids[first]) {
			first = v
		}
	}
	ordered := g.comp[:0]
	path := g.cs.path[:0]
	prev := -1
	cur := first
	for {
		ordered = append(ordered, cur)
		next := -1
		var via *edge
		for _, e := range g.nbrs[cur] {
			u := e.sa
			if u == cur {
				u = e.sb
			}
			if u != prev {
				next, via = u, e
				break
			}
		}
		if next == -1 {
			break
		}
		path = append(path, via)
		prev, cur = cur, next
	}
	g.comp = ordered
	g.cs.path = path
	return ordered
}

// chainEdge is one edge of a path component in walk order.
type chainEdge struct {
	f, b  float64 // weight oriented forward (v_i -> v_{i+1}) / backward
	fixed Dir     // Undetermined if free; AToB meaning "forward" here, BToA "backward"
}

// solveChain minimizes the critical path of one path component (slots comp
// in path order, joined by g.cs.path[i] between comp[i] and comp[i+1]) and
// records the chosen orientation into plan. It returns the component's
// minimal critical-path value.
func (g *Graph) solveChain(comp []int, w0 T0Weight, plan *Plan) float64 {
	cs := &g.cs
	m := len(comp)
	r := resetFloats(&cs.r, m)
	maxR := 0.0
	for i, s := range comp {
		r[i] = w0(g.txnAt[s])
		if r[i] > maxR {
			maxR = r[i]
		}
	}
	if m == 1 {
		return maxR
	}
	edges := cs.edges[:0]
	for i := 0; i < m-1; i++ {
		e := cs.path[i]
		var ce chainEdge
		if comp[i] == e.sa {
			ce.f, ce.b = e.wAB, e.wBA
			ce.fixed = e.dir
		} else {
			ce.f, ce.b = e.wBA, e.wAB
			switch e.dir {
			case AToB:
				ce.fixed = BToA
			case BToA:
				ce.fixed = AToB
			default:
				ce.fixed = Undetermined
			}
		}
		edges = append(edges, ce)
	}
	cs.edges = edges

	// Candidate critical values: every r_s, every forward contiguous sum
	// r_s + Σ f, every backward contiguous sum r_s + Σ b.
	cands := append(cs.cands[:0], r...)
	for s := 0; s < m; s++ {
		sum := 0.0
		for j := s; j < m-1; j++ {
			sum += edges[j].f
			cands = append(cands, r[s]+sum)
		}
		sum = 0.0
		for i := s - 1; i >= 0; i-- {
			sum += edges[i].b
			cands = append(cands, r[s]+sum)
		}
	}
	sortFloats(cands)
	cands = dedupFloats(cands)
	cs.cands = cands
	// Binary search the smallest feasible candidate >= maxR.
	lo := sort.SearchFloat64s(cands, maxR)
	hi := len(cands) - 1
	// The largest candidate is always feasible (it bounds every run value).
	for lo < hi {
		mid := (lo + hi) / 2
		if feasible, _ := g.chainFeasible(r, edges, cands[mid]); feasible {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	value := cands[lo]
	_, dirs := g.chainFeasible(r, edges, value)
	for i, forward := range dirs {
		a, b := pairKey(g.ids[comp[i]], g.ids[comp[i+1]])
		winner := g.ids[comp[i]]
		if !forward {
			winner = g.ids[comp[i+1]]
		}
		plan.pred = append(plan.pred, planEdge{a: a, b: b, winner: winner})
	}
	return value
}

// chainFeasible decides whether an orientation of the free edges exists such
// that every directed run's path value stays <= x, and returns one such
// orientation (true = forward) when it does. The returned slice is scratch,
// valid until the next call.
func (g *Graph) chainFeasible(r []float64, edges []chainEdge, x float64) (bool, []bool) {
	cs := &g.cs
	for _, ri := range r {
		if ri > x {
			return false, nil
		}
	}
	const inf = math.MaxFloat64
	n := len(edges)
	// sf[i]: minimal open forward-run value with edge i forward; sb[i]:
	// minimal open backward-run weight-sum with edge i backward.
	sf := resetFloats(&cs.sf, n)
	sb := resetFloats(&cs.sb, n)
	// fromF[i] records whether state (i, dir) was reached from a forward
	// state at i-1 (used for reconstruction).
	fromFf := resetBools(&cs.fromFf, n)
	fromFb := resetBools(&cs.fromFb, n)
	for i := 0; i < n; i++ {
		sf[i], sb[i] = inf, inf
		allowF := edges[i].fixed != BToA
		allowB := edges[i].fixed != AToB
		if allowF {
			base := r[i] + edges[i].f
			var best float64 = inf
			fromF := false
			if i == 0 {
				best = base
			} else {
				if sb[i-1] < inf {
					best = base
				}
				if sf[i-1] < inf {
					v := sf[i-1] + edges[i].f
					if base > v {
						v = base
					}
					if v < best {
						best = v
						fromF = true
					}
				}
			}
			if best <= x {
				sf[i] = best
				fromFf[i] = fromF
			}
		}
		if allowB {
			var best float64 = inf
			fromF := false
			if i == 0 {
				best = edges[i].b
			} else {
				if sf[i-1] < inf {
					best = edges[i].b
					fromF = true
				}
				if sb[i-1] < inf {
					v := sb[i-1] + edges[i].b
					if v < best {
						best = v
						fromF = false
					}
				}
			}
			if best < inf && r[i+1]+best <= x {
				sb[i] = best
				fromFb[i] = fromF
			}
		}
		if sf[i] == inf && sb[i] == inf {
			return false, nil
		}
	}
	if n == 0 {
		return true, nil
	}
	// Reconstruct.
	dirs := resetBools(&cs.dirs, n)
	forward := sf[n-1] < inf
	for i := n - 1; i >= 0; i-- {
		dirs[i] = forward
		if forward {
			forward = fromFf[i]
		} else {
			forward = fromFb[i]
		}
	}
	return true, dirs
}

// sortFloats sorts ascending; components are short, so an insertion sort
// avoids sort.Float64s' partition machinery on the common case.
func sortFloats(xs []float64) {
	if len(xs) > 48 {
		sort.Float64s(xs)
		return
	}
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
