package wtpg

import (
	"fmt"
	"math/rand"
	"testing"

	"batchsched/internal/model"
)

// The admission service evicts transactions mid-run, so the graph's slot
// recycling is no longer exercised only at commit: a slot freed by an evicted
// transaction is handed to the next admission while precedence state from the
// evictee's neighborhood is still live. These tests pin the invariant that
// Remove fully clears a slot — reachability row, adjacency, and the bits other
// rows held about it — before allocSlot may reuse it, by differencing the
// incrementally maintained graph against a from-scratch rebuild of the
// survivors.

// rebuildSurvivors constructs a fresh graph over g's surviving transactions in
// the same insertion order and replays exactly the orientations g currently
// holds. OrientAll failing means g's incremental state encodes an infeasible
// (cyclic) order — itself a corruption.
func rebuildSurvivors(t *testing.T, g *Graph) *Graph {
	t.Helper()
	fresh := New()
	for _, u := range g.order {
		fresh.Add(u)
	}
	var pairs [][2]int64
	for _, e := range g.edgeSet() {
		if e.dir == Undetermined {
			continue
		}
		from, to, _ := e.oriented()
		pairs = append(pairs, [2]int64{from, to})
	}
	if err := fresh.OrientAll(pairs); err != nil {
		t.Fatalf("incremental orientations are infeasible on a fresh rebuild: %v", err)
	}
	return fresh
}

// edgeFact is the ID-keyed view of one edge, independent of slot assignment.
type edgeFact struct {
	dir      Dir
	wAB, wBA float64
	files    string
}

func edgeFacts(g *Graph) map[[2]int64]edgeFact {
	out := make(map[[2]int64]edgeFact, len(g.edgeSet()))
	for _, e := range g.edgeSet() {
		out[[2]int64{e.a, e.b}] = edgeFact{dir: e.dir, wAB: e.wAB, wBA: e.wBA, files: fmt.Sprint(e.files)}
	}
	return out
}

// reachFacts projects the slot-indexed bitset rows onto transaction IDs.
func reachFacts(g *Graph) map[[2]int64]bool {
	out := make(map[[2]int64]bool)
	for _, x := range g.order {
		row := g.reach[g.slots[x.ID]]
		for _, y := range g.order {
			if x == y {
				continue
			}
			if bitGet(row, g.slots[y.ID]) {
				out[[2]int64{x.ID, y.ID}] = true
			}
		}
	}
	return out
}

// checkSlotHygiene asserts the internal invariants slot reuse depends on:
// freed slots hold no adjacency, no transaction, and an all-zero reachability
// row; live rows never point at dead slots or at themselves; edge slot fields
// agree with the slot map.
func checkSlotHygiene(t *testing.T, g *Graph) {
	t.Helper()
	for _, s := range g.freed {
		if g.live[s] || g.txnAt[s] != nil {
			t.Fatalf("freed slot %d still live", s)
		}
		if len(g.nbrs[s]) != 0 {
			t.Fatalf("freed slot %d retains %d adjacency entries", s, len(g.nbrs[s]))
		}
		for w, bits := range g.reach[s] {
			if bits != 0 {
				t.Fatalf("freed slot %d retains reachability bits in word %d: %x", s, w, bits)
			}
		}
	}
	for s, lv := range g.live {
		if !lv {
			continue
		}
		if bitGet(g.reach[s], s) {
			t.Fatalf("slot %d (txn %d) reaches itself: cycle in precedence state", s, g.ids[s])
		}
		for x := range g.ids {
			if bitGet(g.reach[s], x) && !g.live[x] {
				t.Fatalf("slot %d (txn %d) reaches dead slot %d", s, g.ids[s], x)
			}
		}
		for _, e := range g.nbrs[s] {
			if e.sa != g.slots[e.a] || e.sb != g.slots[e.b] {
				t.Fatalf("edge (%d,%d) slot fields (%d,%d) disagree with slot map (%d,%d)",
					e.a, e.b, e.sa, e.sb, g.slots[e.a], g.slots[e.b])
			}
		}
	}
}

// checkAgainstRebuild is the differential oracle: g must agree with a fresh
// rebuild of its survivors on edges, weights, orientations, and the full
// reachability relation.
func checkAgainstRebuild(t *testing.T, g *Graph) {
	t.Helper()
	checkSlotHygiene(t, g)
	fresh := rebuildSurvivors(t, g)
	if g.Len() != fresh.Len() {
		t.Fatalf("rebuild has %d transactions, incremental %d", fresh.Len(), g.Len())
	}
	ge, fe := edgeFacts(g), edgeFacts(fresh)
	if len(ge) != len(fe) {
		t.Fatalf("edge sets differ: incremental %d edges, rebuild %d", len(ge), len(fe))
	}
	for k, v := range ge {
		if fv, ok := fe[k]; !ok || fv != v {
			t.Fatalf("edge %v: incremental %+v, rebuild %+v (present=%v)", k, v, fe[k], ok)
		}
	}
	gr, fr := reachFacts(g), reachFacts(fresh)
	if len(gr) != len(fr) {
		t.Fatalf("reachability differs: incremental %d pairs, rebuild %d\ninc: %v\nreb: %v", len(gr), len(fr), gr, fr)
	}
	for k := range gr {
		if !fr[k] {
			t.Fatalf("incremental claims %d reaches %d; rebuild disagrees", k[0], k[1])
		}
	}
}

// TestEvictReadmitSameSlot is the targeted regression: evict a transaction in
// the middle of an oriented chain and admit a new conflicting transaction into
// the recycled slot. No precedence state may leak from the evictee to the
// newcomer.
func TestEvictReadmitSameSlot(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := New()
	for id := int64(1); id <= 3; id++ {
		g.Add(randTxn(r, id, 0))
	}
	if err := g.Orient(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Orient(2, 3); err != nil {
		t.Fatal(err)
	}
	if !bitGet(g.reach[g.slots[1]], g.slots[3]) {
		t.Fatal("precondition: 1 must reach 3 through 2")
	}
	evicted := g.slots[2]
	g.Remove(2)
	g.Add(randTxn(r, 4, 0))
	if got := g.slots[4]; got != evicted {
		t.Fatalf("newcomer got slot %d, want recycled slot %d", got, evicted)
	}
	// The recycled slot must start clean: no inherited orientation, no
	// inherited reachability in either direction.
	if _, _, d, ok := g.EdgeDir(1, 4); !ok || d != Undetermined {
		t.Fatalf("edge 1-4 should exist undetermined, got dir %v (present=%v)", d, ok)
	}
	for _, other := range []int64{1, 3} {
		if bitGet(g.reach[g.slots[4]], g.slots[other]) {
			t.Fatalf("recycled slot inherited reachability to txn %d", other)
		}
		if bitGet(g.reach[g.slots[other]], g.slots[4]) {
			t.Fatalf("txn %d claims stale reachability into recycled slot", other)
		}
	}
	// Removing 2 severed the only 1→3 path; the edge 1-3 stays determined
	// (orientation is a fact about the order, not the path) but the chain
	// through the newcomer must be freely orientable against it.
	if err := g.Orient(4, 1); err != nil {
		t.Fatalf("orienting 4 before 1 hit phantom state: %v", err)
	}
	if err := g.Orient(3, 4); err == nil {
		// 1→3 was determined before the eviction; with 4→1 that makes
		// 3→4→1→... fine unless 1 still reaches 3. It does (direct edge),
		// so this must deadlock — anything else means the closure index
		// lost the surviving direct edge.
		t.Fatal("3→4 should close the cycle 3→4→1→3")
	}
	checkAgainstRebuild(t, g)
}

// TestEvictionDifferentialRandom drives 200 random admit/orient/evict
// interleavings over a small transaction population with heavy slot reuse,
// checking the incremental graph against a from-scratch rebuild after every
// eviction and at the end of each interleaving.
func TestEvictionDifferentialRandom(t *testing.T) {
	const (
		interleavings = 200
		opsPerRun     = 40
		maxPopulation = 8
		filePool      = 4
	)
	for seed := int64(1); seed <= interleavings; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			g := New()
			nextID := int64(1)
			admit := func() {
				k := 1 + r.Intn(3)
				files := make([]model.FileID, 0, k)
				for len(files) < k {
					f := model.FileID(r.Intn(filePool))
					dup := false
					for _, x := range files {
						dup = dup || x == f
					}
					if !dup {
						files = append(files, f)
					}
				}
				g.Add(randTxn(r, nextID, files...))
				nextID++
			}
			for i := 0; i < 3; i++ {
				admit()
			}
			for op := 0; op < opsPerRun; op++ {
				switch c := r.Intn(10); {
				case c < 4 && g.Len() < maxPopulation: // admit
					admit()
				case c < 7 && g.Len() > 1: // evict a random survivor
					victim := g.order[r.Intn(len(g.order))].ID
					g.Remove(victim)
					checkAgainstRebuild(t, g)
				default: // orient a random joined pair
					if g.Len() < 2 {
						continue
					}
					x := g.order[r.Intn(len(g.order))].ID
					y := g.order[r.Intn(len(g.order))].ID
					if x == y {
						continue
					}
					if _, _, _, ok := g.EdgeDir(x, y); !ok {
						continue
					}
					if err := g.Orient(x, y); err != nil && err != ErrDeadlock {
						t.Fatalf("Orient(%d,%d) = %v", x, y, err)
					}
				}
			}
			checkAgainstRebuild(t, g)
		})
	}
}
