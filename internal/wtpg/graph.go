// Package wtpg implements the Weighted Transaction-Precedence Graph of
// Ohmori et al. (ICDE 1990/1991), the estimation tool behind the GOW and LOW
// batch schedulers.
//
// A WTPG holds one node per active transaction plus the virtual initial
// transaction T0 (and final transaction Tf, whose edges all weigh zero and
// are therefore implicit). Two transactions whose access declarations
// conflict on some file are joined by a conflict edge; once their
// serialization order is determined the edge becomes a precedence edge. Each
// direction of an edge carries a weight: the declared I/O demand (in
// objects) the successor must still pay from its blocked step to its commit,
// assuming the predecessor has just committed. T0's edge to each transaction
// weighs that transaction's remaining declared demand and is the only weight
// that changes as the schedule proceeds.
//
// The graph is evaluated on every lock request, so its representation is
// built for that hot path: transactions map to dense small-integer slots,
// adjacency is a sorted slice per slot, and reachability over precedence
// edges is a []uint64 bitset row per slot maintained incrementally as edges
// are oriented. Speculative evaluation (LOW's E(q)) applies orientations to
// the live graph under an undo log and rolls them back, instead of deep
// copying the graph per candidate.
package wtpg

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"batchsched/internal/model"
)

// Dir is the orientation state of an edge.
type Dir int

const (
	// Undetermined: still a conflict edge (no serialization order chosen).
	Undetermined Dir = iota
	// AToB: the lower-ID endpoint precedes the higher-ID endpoint.
	AToB
	// BToA: the higher-ID endpoint precedes the lower-ID endpoint.
	BToA
)

// ErrDeadlock is returned when an orientation would close a precedence cycle
// (or contradict an existing precedence edge), i.e. when granting the
// request under evaluation would deadlock the schedule.
var ErrDeadlock = fmt.Errorf("wtpg: orientation closes a precedence cycle")

type edge struct {
	a, b   int64   // a < b (transaction IDs)
	sa, sb int     // slots of a and b while both are in the graph
	wAB    float64 // weight when oriented a->b: b's remaining demand from its blocked step
	wBA    float64 // weight when oriented b->a
	files  []model.FileID
	dir    Dir
}

func (e *edge) conflictsOn(f model.FileID) bool {
	for _, x := range e.files {
		if x == f {
			return true
		}
	}
	return false
}

func (e *edge) other(id int64) int64 {
	if id == e.a {
		return e.b
	}
	return e.a
}

// oriented returns (from, to, weight) for a determined edge.
func (e *edge) oriented() (int64, int64, float64) {
	if e.dir == AToB {
		return e.a, e.b, e.wAB
	}
	return e.b, e.a, e.wBA
}

func pairKey(x, y int64) (int64, int64) {
	if x < y {
		return x, y
	}
	return y, x
}

// savedRow is one copy-on-write reachability row in the undo log.
type savedRow struct {
	slot int
	row  []uint64
}

// Graph is a WTPG over the currently active transactions. It is not safe for
// concurrent use; each simulation run owns its graphs exclusively.
type Graph struct {
	txns  map[int64]*model.Txn
	slots map[int64]int // txn id -> slot
	ids   []int64       // slot -> txn id (valid while live[slot])
	txnAt []*model.Txn  // slot -> transaction (nil when not live)
	live  []bool
	freed []int
	order []*model.Txn // insertion order, for deterministic iteration

	// nbrs[s] holds the edges incident to slot s, sorted ascending by the
	// other endpoint's transaction ID, so per-request iteration needs no
	// sort and pair lookup is a binary search.
	nbrs [][]*edge

	// reach[s] is a bitset over slots: bit t set iff a non-empty directed
	// path of precedence edges runs from slot s to slot t. Maintained
	// incrementally by orientEdge; rebuilt per affected row on Remove.
	reach [][]uint64
	words int // words per reachability row

	// edges caches edgeSet() (each edge once, sorted by (a, b)); dirs may
	// change without invalidating it, only Add/Remove set edgesDirty.
	edges      []*edge
	edgesDirty bool

	// Undo log for speculative orientation (begin/rollback/commit).
	specActive bool
	logEdges   []*edge
	logRows    []savedRow
	logNRows   int
	rowGen     []int64 // per-slot generation of the last saved row
	gen        int64

	// Scratch buffers reused across calls (valid only within one call).
	indeg   []int
	best    []float64
	queue   []int
	stack   []int
	visited []bool
	mark    []bool
	comp    []int // path-ordered component slots
	cs      chainScratch
}

// New returns an empty WTPG.
func New() *Graph {
	return &Graph{
		txns:  make(map[int64]*model.Txn),
		slots: make(map[int64]int),
	}
}

// Len returns the number of (general) transactions in the graph.
func (g *Graph) Len() int { return len(g.txns) }

// Has reports whether the transaction is in the graph.
func (g *Graph) Has(id int64) bool { _, ok := g.txns[id]; return ok }

// Txn returns the transaction with the given id, or nil.
func (g *Graph) Txn(id int64) *model.Txn { return g.txns[id] }

// Txns returns the transactions in insertion order. The slice is owned by
// the graph: it is valid until the next Add or Remove and must not be
// modified. Evaluation and orientation leave it untouched, so a caller may
// evaluate candidates while ranging over it.
func (g *Graph) Txns() []*model.Txn { return g.order }

func bitGet(row []uint64, i int) bool { return row[i>>6]&(1<<(uint(i)&63)) != 0 }
func bitPut(row []uint64, i int)      { row[i>>6] |= 1 << (uint(i) & 63) }

// allocSlot assigns a dense slot to a new transaction, reusing freed slots
// and growing the per-row word count only when the slot space expands past a
// 64-slot boundary.
func (g *Graph) allocSlot(id int64) int {
	var s int
	if n := len(g.freed); n > 0 {
		s = g.freed[n-1]
		g.freed = g.freed[:n-1]
	} else {
		s = len(g.ids)
		g.ids = append(g.ids, 0)
		g.txnAt = append(g.txnAt, nil)
		g.live = append(g.live, false)
		g.nbrs = append(g.nbrs, nil)
		g.reach = append(g.reach, nil)
		g.rowGen = append(g.rowGen, 0)
		if need := (len(g.ids) + 63) / 64; need > g.words {
			g.words = need
			for i := range g.reach {
				for len(g.reach[i]) < g.words {
					g.reach[i] = append(g.reach[i], 0)
				}
			}
		}
	}
	g.ids[s] = id
	g.live[s] = true
	g.slots[id] = s
	row := g.reach[s]
	if cap(row) < g.words {
		row = make([]uint64, g.words)
	} else {
		row = row[:g.words]
		for i := range row {
			row[i] = 0
		}
	}
	g.reach[s] = row
	return s
}

// insertNeighbor places e into slot s's adjacency keeping it sorted by the
// other endpoint's ID.
func (g *Graph) insertNeighbor(s int, other int64, e *edge) {
	lst := g.nbrs[s]
	self := g.ids[s]
	i := sort.Search(len(lst), func(i int) bool { return lst[i].other(self) >= other })
	lst = append(lst, nil)
	copy(lst[i+1:], lst[i:])
	lst[i] = e
	g.nbrs[s] = lst
}

func (g *Graph) removeNeighbor(s int, other int64) {
	lst := g.nbrs[s]
	self := g.ids[s]
	i := sort.Search(len(lst), func(i int) bool { return lst[i].other(self) >= other })
	if i < len(lst) && lst[i].other(self) == other {
		copy(lst[i:], lst[i+1:])
		lst[len(lst)-1] = nil
		g.nbrs[s] = lst[:len(lst)-1]
	}
}

// Add inserts a transaction, creating a conflict edge (with both directional
// weights from the access declarations) to every already-present transaction
// it conflicts with. Adding an existing id panics: it is always a scheduler
// bug.
func (g *Graph) Add(t *model.Txn) {
	if g.specActive {
		panic("wtpg: Add during speculative evaluation")
	}
	if g.Has(t.ID) {
		panic(fmt.Sprintf("wtpg: transaction %d already present", t.ID))
	}
	s := g.allocSlot(t.ID)
	g.txns[t.ID] = t
	g.txnAt[s] = t
	g.order = append(g.order, t)
	for _, u := range g.order[:len(g.order)-1] {
		files := conflictFiles(t, u)
		if len(files) == 0 {
			continue
		}
		a, b := pairKey(t.ID, u.ID)
		ta, tb := g.txns[a], g.txns[b]
		wAB, _ := model.ConflictWeight(tb, ta) // b blocked by a
		wBA, _ := model.ConflictWeight(ta, tb)
		e := &edge{a: a, b: b, sa: g.slots[a], sb: g.slots[b],
			wAB: wAB, wBA: wBA, files: files}
		g.insertNeighbor(s, u.ID, e)
		g.insertNeighbor(g.slots[u.ID], t.ID, e)
		g.edgesDirty = true
	}
}

// declConflict reports whether the declared needs of x and y request
// incompatible modes on at least one common file. A merge over the sorted
// need lists: no allocation, no map iteration.
func declConflict(x, y *model.Txn) bool {
	fx, mx := x.LockNeedSorted()
	fy, my := y.LockNeedSorted()
	i, j := 0, 0
	for i < len(fx) && j < len(fy) {
		switch {
		case fx[i] < fy[j]:
			i++
		case fx[i] > fy[j]:
			j++
		default:
			if !mx[i].Compatible(my[j]) {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// conflictFiles lists the files on which the declared needs of x and y
// request incompatible lock modes, in ascending order.
func conflictFiles(x, y *model.Txn) []model.FileID {
	fx, mx := x.LockNeedSorted()
	fy, my := y.LockNeedSorted()
	var out []model.FileID
	i, j := 0, 0
	for i < len(fx) && j < len(fy) {
		switch {
		case fx[i] < fy[j]:
			i++
		case fx[i] > fy[j]:
			j++
		default:
			if !mx[i].Compatible(my[j]) {
				out = append(out, fx[i])
			}
			i++
			j++
		}
	}
	return out
}

// Remove deletes a transaction (typically on commit) together with all of
// its edges. Removing an absent id is a no-op. Reachability rows that ran
// through the removed node are rebuilt; all others are untouched.
func (g *Graph) Remove(id int64) {
	if g.specActive {
		panic("wtpg: Remove during speculative evaluation")
	}
	s, ok := g.slots[id]
	if !ok {
		return
	}
	hadDetermined := false
	for _, e := range g.nbrs[s] {
		if e.dir != Undetermined {
			hadDetermined = true
		}
		os := e.sa
		if os == s {
			os = e.sb
		}
		g.removeNeighbor(os, id)
	}
	if len(g.nbrs[s]) > 0 {
		g.edgesDirty = true
	}
	lst := g.nbrs[s]
	for i := range lst {
		lst[i] = nil
	}
	g.nbrs[s] = lst[:0]
	delete(g.slots, id)
	delete(g.txns, id)
	g.txnAt[s] = nil
	g.live[s] = false
	g.freed = append(g.freed, s)
	for i, x := range g.order {
		if x.ID == id {
			g.order = slices.Delete(g.order, i, i+1)
			break
		}
	}
	row := g.reach[s]
	for i := range row {
		row[i] = 0
	}
	if hadDetermined {
		// Every row that reached s (paths through s imply reaching s itself)
		// is stale; recompute just those.
		for x, lv := range g.live {
			if lv && bitGet(g.reach[x], s) {
				g.recomputeRow(x)
			}
		}
	}
}

// recomputeRow rebuilds reach[s] by a DFS over the current precedence edges.
func (g *Graph) recomputeRow(s int) {
	row := g.reach[s]
	for i := range row {
		row[i] = 0
	}
	g.stack = g.stack[:0]
	g.pushSuccessors(s)
	for len(g.stack) > 0 {
		v := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		if bitGet(row, v) {
			continue
		}
		bitPut(row, v)
		g.pushSuccessors(v)
	}
}

// pushSuccessors pushes the precedence successors of slot s onto the scratch
// stack.
func (g *Graph) pushSuccessors(s int) {
	for _, e := range g.nbrs[s] {
		switch e.dir {
		case AToB:
			if e.sa == s {
				g.stack = append(g.stack, e.sb)
			}
		case BToA:
			if e.sb == s {
				g.stack = append(g.stack, e.sa)
			}
		}
	}
}

// Clone returns a deep copy of the graph sharing the (immutable) transaction
// declarations. Retained for tests and offline tools; the hot path
// (Evaluate) speculates on the live graph instead.
func (g *Graph) Clone() *Graph {
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

// EdgeDir returns the orientation state of the edge between x and y, and
// whether such an edge exists.
func (g *Graph) EdgeDir(x, y int64) (from, to int64, dir Dir, ok bool) {
	e, ok2 := g.edgeBetween(x, y)
	if !ok2 {
		return 0, 0, Undetermined, false
	}
	switch e.dir {
	case AToB:
		return e.a, e.b, e.dir, true
	case BToA:
		return e.b, e.a, e.dir, true
	default:
		return 0, 0, Undetermined, true
	}
}

// EdgeWeight returns the weight the edge between from and to would carry
// when oriented from->to, and whether the pair is joined at all.
func (g *Graph) EdgeWeight(from, to int64) (float64, bool) {
	e, ok := g.edgeBetween(from, to)
	if !ok {
		return 0, false
	}
	if from == e.a {
		return e.wAB, true
	}
	return e.wBA, true
}

func (g *Graph) edgeBetween(x, y int64) (*edge, bool) {
	s, ok := g.slots[x]
	if !ok {
		return nil, false
	}
	lst := g.nbrs[s]
	i := sort.Search(len(lst), func(i int) bool { return lst[i].other(x) >= y })
	if i < len(lst) && lst[i].other(x) == y {
		return lst[i], true
	}
	return nil, false
}

// begin opens an undo scope for speculative orientation. Scopes do not nest.
func (g *Graph) begin() {
	if g.specActive {
		panic("wtpg: nested speculative evaluation")
	}
	g.specActive = true
	g.gen++
	g.logEdges = g.logEdges[:0]
	g.logNRows = 0
}

// saveRow records reach[s] in the undo log once per scope (copy-on-write).
func (g *Graph) saveRow(s int) {
	if g.rowGen[s] == g.gen {
		return
	}
	g.rowGen[s] = g.gen
	if g.logNRows < len(g.logRows) {
		sr := &g.logRows[g.logNRows]
		sr.slot = s
		sr.row = append(sr.row[:0], g.reach[s]...)
	} else {
		g.logRows = append(g.logRows, savedRow{slot: s, row: append([]uint64(nil), g.reach[s]...)})
	}
	g.logNRows++
}

// rollback undoes every orientation and reachability change of the current
// scope and closes it.
func (g *Graph) rollback() {
	for _, e := range g.logEdges {
		e.dir = Undetermined // scopes only ever determine undetermined edges
	}
	for i := 0; i < g.logNRows; i++ {
		sr := &g.logRows[i]
		copy(g.reach[sr.slot], sr.row)
	}
	g.specActive = false
}

// commit keeps the scope's changes and closes it.
func (g *Graph) commit() { g.specActive = false }

// orientEdge fixes e in direction want and updates the reachability bitsets
// incrementally: every row that reaches the new predecessor (plus the
// predecessor itself) absorbs the successor's row. It refuses with
// ErrDeadlock — before mutating anything — when the successor already
// reaches the predecessor. Must run inside a begin scope.
func (g *Graph) orientEdge(e *edge, want Dir) error {
	sf, st := e.sa, e.sb
	if want == BToA {
		sf, st = e.sb, e.sa
	}
	if bitGet(g.reach[st], sf) {
		return ErrDeadlock // to already reaches from: a cycle would close
	}
	g.logEdges = append(g.logEdges, e)
	e.dir = want
	tr := g.reach[st]
	for x, lv := range g.live {
		if !lv {
			continue
		}
		if x != sf && !bitGet(g.reach[x], sf) {
			continue
		}
		row := g.reach[x]
		changed := !bitGet(row, st)
		if !changed {
			for w, bits := range tr {
				if bits&^row[w] != 0 {
					changed = true
					break
				}
			}
		}
		if !changed {
			continue
		}
		g.saveRow(x)
		row = g.reach[x]
		for w, bits := range tr {
			row[w] |= bits
		}
		bitPut(row, st)
	}
	return nil
}

// Orient fixes the serialization order from->to on the (existing) edge
// between the two transactions and propagates the transitive closure of
// Section 3.3 (a directed path forces the orientation of any conflict edge
// between its endpoints). It returns ErrDeadlock — leaving the graph
// unchanged — when the orientation contradicts an existing precedence edge
// or closes a cycle.
func (g *Graph) Orient(from, to int64) error {
	return g.OrientAll([][2]int64{{from, to}})
}

// OrientAll applies a batch of orientations atomically (all or none),
// running closure once at the end.
func (g *Graph) OrientAll(pairs [][2]int64) error {
	g.begin()
	if err := g.applyOrientations(pairs); err != nil {
		g.rollback()
		return err
	}
	g.commit()
	return nil
}

// applyOrientations orients the requested pairs and closes the graph under
// the Section-3.3 rule inside the current undo scope. On error the caller
// must roll the scope back.
func (g *Graph) applyOrientations(pairs [][2]int64) error {
	for _, p := range pairs {
		e, ok := g.edgeBetween(p[0], p[1])
		if !ok {
			return fmt.Errorf("wtpg: no edge between %d and %d", p[0], p[1])
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
		if err := g.orientEdge(e, want); err != nil {
			return err
		}
	}
	// Closure to fixpoint: any undetermined edge whose endpoints are joined
	// by a directed path must follow that path's direction; both directions
	// reachable means a deadlock. Each pass is a pair of O(1) bit probes per
	// edge against the incrementally maintained rows.
	for {
		changed := false
		for _, e := range g.edgeSet() {
			if e.dir != Undetermined {
				continue
			}
			ab := bitGet(g.reach[e.sa], e.sb)
			ba := bitGet(g.reach[e.sb], e.sa)
			switch {
			case ab && ba:
				return ErrDeadlock
			case ab:
				if err := g.orientEdge(e, AToB); err != nil {
					return err
				}
				changed = true
			case ba:
				if err := g.orientEdge(e, BToA); err != nil {
					return err
				}
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// edgeSet returns each edge exactly once, sorted by (a, b). The slice is
// cached; Add/Remove invalidate it (orientation changes do not). Callers
// must not modify or retain it across mutations.
func (g *Graph) edgeSet() []*edge {
	if !g.edgesDirty {
		return g.edges
	}
	g.edges = g.edges[:0]
	for _, t := range g.order {
		for _, e := range g.nbrs[g.slots[t.ID]] {
			if e.a == t.ID { // emit from the low endpoint only
				g.edges = append(g.edges, e)
			}
		}
	}
	sortEdges(g.edges)
	g.edgesDirty = false
	return g.edges
}

// sortEdges orders edges by (a, b) with a reflection-free insertion sort.
// Transaction IDs are assigned monotonically, so the emission order of
// edgeSet is already sorted in practice and the loop is a single pass.
func sortEdges(es []*edge) {
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

// GrantOrientations lists the serialization orders that granting transaction
// t a lock of mode m on file f would newly determine: t precedes every other
// active transaction whose declared need on f is incompatible with m. The
// second return is ErrDeadlock when some such pair is already determined the
// other way (the grant would violate the existing order).
func (g *Graph) GrantOrientations(t *model.Txn, f model.FileID, m model.Mode) ([][2]int64, error) {
	s, ok := g.slots[t.ID]
	if !ok {
		return nil, fmt.Errorf("wtpg: transaction %d not in graph", t.ID)
	}
	var out [][2]int64
	for _, e := range g.nbrs[s] { // sorted by the other endpoint's ID
		if !e.conflictsOn(f) {
			continue
		}
		us := e.sa
		if us == s {
			us = e.sb
		}
		uID := e.other(t.ID)
		um, ok := g.txnAt[us].NeedMode(f)
		if !ok || um.Compatible(m) {
			continue
		}
		switch e.dir {
		case Undetermined:
			out = append(out, [2]int64{t.ID, uID})
		case AToB:
			if e.a != t.ID {
				return nil, ErrDeadlock
			}
		case BToA:
			if e.b != t.ID {
				return nil, ErrDeadlock
			}
		}
	}
	return out, nil
}

// Grant applies the orientations implied by granting t a lock of mode m on
// file f (see GrantOrientations) plus their closure, atomically. On
// ErrDeadlock the graph is unchanged and the grant must not proceed.
func (g *Graph) Grant(t *model.Txn, f model.FileID, m model.Mode) error {
	pairs, err := g.GrantOrientations(t, f, m)
	if err != nil {
		return err
	}
	return g.OrientAll(pairs)
}

// T0Weight is the weight of the edge T0 -> t: t's remaining declared I/O
// demand at the current scheduling state.
type T0Weight func(t *model.Txn) float64

// RemainingDemand is the standard T0 weight: the sum of declared costs of
// the transaction's unfinished steps.
func RemainingDemand(t *model.Txn) float64 { return t.DeclaredRemaining(t.StepIndex) }

// CriticalPath returns the length of the longest path from T0 to Tf using
// precedence (determined) edges only; undetermined conflict edges are
// ignored, exactly as in Phase 2 of the E(q) evaluation. Every Ti->Tf edge
// weighs zero under the paper's cost model, so the answer is
//
//	max over v of [ max over directed paths u1->...->v of w0(u1) + Σ w ].
//
// It returns ErrDeadlock if the precedence edges contain a cycle (impossible
// after successful Orient/Grant calls, but checked defensively). It reads
// edge directions only, never the reachability index, so it is safe under a
// speculative scope and in tests that toggle directions directly.
func (g *Graph) CriticalPath(w0 T0Weight) (float64, error) {
	n := len(g.ids)
	if cap(g.indeg) < n {
		g.indeg = make([]int, n)
		g.best = make([]float64, n)
	}
	indeg := g.indeg[:n]
	best := g.best[:n]
	for _, e := range g.edgeSet() {
		if e.dir == Undetermined {
			continue
		}
		if e.dir == AToB {
			indeg[e.sb]++
		} else {
			indeg[e.sa]++
		}
	}
	queue := g.queue[:0]
	for s, lv := range g.live {
		if !lv {
			continue
		}
		best[s] = w0(g.txnAt[s])
		if indeg[s] == 0 {
			queue = append(queue, s)
		}
	}
	// Kahn topological order with forward longest-path relaxation.
	processed := 0
	var ans float64
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		processed++
		b := best[s]
		if b > ans {
			ans = b
		}
		for _, e := range g.nbrs[s] {
			var to int
			var w float64
			switch e.dir {
			case AToB:
				if e.sa != s {
					continue
				}
				to, w = e.sb, e.wAB
			case BToA:
				if e.sb != s {
					continue
				}
				to, w = e.sa, e.wBA
			default:
				continue
			}
			if v := b + w; v > best[to] {
				best[to] = v
			}
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	g.queue = queue[:0]
	if processed != len(g.txns) {
		// Leave indeg zeroed for the next call before reporting the cycle.
		for i := range indeg {
			indeg[i] = 0
		}
		return math.Inf(1), ErrDeadlock
	}
	return ans, nil
}

// Evaluate computes the LOW estimation function E(q) of Fig. 5 for the
// request "transaction t asks mode m on file f": tentatively grant the
// request on the live graph under an undo scope (orienting the edges the
// grant determines, with closure), measure the critical path ignoring the
// remaining conflict edges, and roll the graph back to its prior state. A
// grant that would deadlock evaluates to +Inf.
func Evaluate(g *Graph, t *model.Txn, f model.FileID, m model.Mode, w0 T0Weight) float64 {
	pairs, err := g.GrantOrientations(t, f, m)
	if err != nil {
		return math.Inf(1)
	}
	g.begin()
	if err := g.applyOrientations(pairs); err != nil {
		g.rollback()
		return math.Inf(1)
	}
	v, err := g.CriticalPath(w0)
	g.rollback()
	if err != nil {
		return math.Inf(1)
	}
	return v
}
