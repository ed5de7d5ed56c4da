package wtpg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"batchsched/internal/model"
)

// randTxn builds a transaction of X-write steps over the given files with
// random costs — writes everywhere so any file overlap is a conflict.
func randTxn(r *rand.Rand, id int64, files ...model.FileID) *model.Txn {
	steps := make([]model.Step, 0, len(files))
	for _, f := range files {
		c := float64(r.Intn(30)+1) / 10.0
		steps = append(steps, model.Step{File: f, Write: true, LockMode: model.X, Cost: c, DeclaredCost: c})
	}
	return model.NewTxn(id, 0, steps)
}

// dirSnapshot captures every edge's orientation state, keyed by the canonical
// (low, high) id pair.
func dirSnapshot(g *Graph) map[[2]int64]Dir {
	out := make(map[[2]int64]Dir)
	for i, tx := range g.order {
		for _, ty := range g.order[i+1:] {
			x, y := tx.ID, ty.ID
			if from, _, d, ok := g.EdgeDir(x, y); ok {
				_ = from
				a, b := pairKey(x, y)
				out[[2]int64{a, b}] = d
			}
		}
	}
	return out
}

// TestOrientationClosureStaysAcyclic is the safety property behind every
// grant decision: whenever Orient accepts an orientation (no ErrDeadlock),
// the closed graph must still be a DAG — CriticalPath must never rediscover
// a cycle afterwards. And whenever Orient refuses, the graph must be exactly
// as it was (the all-or-none contract).
func TestOrientationClosureStaysAcyclic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			g := New()
			const n = 8
			for id := int64(1); id <= n; id++ {
				// 1-3 files from a pool of 4: dense, tangled conflicts.
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
				g.Add(randTxn(r, id, files...))
			}
			for try := 0; try < 60; try++ {
				from := int64(1 + r.Intn(n))
				to := int64(1 + r.Intn(n))
				if from == to {
					continue
				}
				if _, _, _, ok := g.EdgeDir(from, to); !ok {
					continue
				}
				before := dirSnapshot(g)
				err := g.Orient(from, to)
				if err != nil {
					if err != ErrDeadlock {
						t.Fatalf("Orient(%d,%d) = %v, want nil or ErrDeadlock", from, to, err)
					}
					if got := dirSnapshot(g); !equalDirs(got, before) {
						t.Fatalf("refused Orient(%d,%d) still mutated the graph", from, to)
					}
					continue
				}
				if _, cpErr := g.CriticalPath(RemainingDemand); cpErr != nil {
					t.Fatalf("closure after Orient(%d,%d) left a cycle: %v", from, to, cpErr)
				}
			}
		})
	}
}

func equalDirs(a, b map[[2]int64]Dir) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// chainGraph builds a path T1 - T2 - ... - Tn where Ti and Ti+1 conflict on
// the dedicated file i (plus one isolated transaction, exercising singleton
// components), returning the graph and the adjacent pairs.
func chainGraph(r *rand.Rand, n int) (*Graph, [][2]int64) {
	g := New()
	for id := int64(1); id <= int64(n); id++ {
		var files []model.FileID
		if id > 1 {
			files = append(files, model.FileID(id-1))
		}
		if id < int64(n) {
			files = append(files, model.FileID(id))
		}
		if len(files) == 0 { // n == 1
			files = append(files, 0)
		}
		g.Add(randTxn(r, id, files...))
	}
	g.Add(randTxn(r, int64(n+1), model.FileID(100))) // isolated
	var pairs [][2]int64
	for id := int64(1); id < int64(n); id++ {
		pairs = append(pairs, [2]int64{id, id + 1})
	}
	return g, pairs
}

// bruteForceChainMin enumerates every orientation of the chain's edges and
// returns the smallest feasible critical-path value.
func bruteForceChainMin(t *testing.T, g *Graph, pairs [][2]int64) float64 {
	t.Helper()
	best := math.Inf(1)
	for mask := 0; mask < 1<<len(pairs); mask++ {
		c := g.Clone()
		oriented := make([][2]int64, len(pairs))
		for k, p := range pairs {
			if mask>>k&1 == 1 {
				oriented[k] = [2]int64{p[1], p[0]}
			} else {
				oriented[k] = p
			}
		}
		if err := c.OrientAll(oriented); err != nil {
			continue // infeasible under pre-determined edges
		}
		v, err := c.CriticalPath(RemainingDemand)
		if err != nil {
			t.Fatalf("fully oriented chain has a cycle: %v", err)
		}
		if v < best {
			best = v
		}
	}
	return best
}

// TestOptimalChainRealizableAndOptimal is GOW's Phase-2 optimality property
// driven purely through the public API (chain_test.go's brute-force test
// flips edge fields directly): on random chain-form graphs of up to 7
// transactions — including a singleton component — the threshold-search
// orientation must (a) be a valid acyclic order realizing exactly its claimed
// Value via Plan.Precedes + OrientAll + CriticalPath, and (b) never be worse
// — or claim better — than exhaustive search over all 2^(n-1) orientations.
func TestOptimalChainRealizableAndOptimal(t *testing.T) {
	const eps = 1e-9
	for seed := int64(1); seed <= 25; seed++ {
		for n := 1; n <= 7; n++ {
			t.Run(fmt.Sprintf("seed%d/n%d", seed, n), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed*31 + int64(n)))
				g, pairs := chainGraph(r, n)
				if !g.ChainForm() {
					t.Fatal("constructed graph is not chain-form")
				}
				// Sometimes pre-orient one edge, as happens mid-schedule when
				// an earlier grant already fixed part of the order.
				if len(pairs) > 0 && r.Intn(2) == 0 {
					p := pairs[r.Intn(len(pairs))]
					if r.Intn(2) == 0 {
						p = [2]int64{p[1], p[0]}
					}
					if err := g.Orient(p[0], p[1]); err != nil {
						t.Fatal(err)
					}
				}
				plan, err := g.OptimalChainOrientation(RemainingDemand)
				if err != nil {
					t.Fatal(err)
				}
				// (a) The plan is a real, acyclic orientation of every chain
				// edge and its Value is the critical path it realizes.
				c := g.Clone()
				oriented := make([][2]int64, 0, len(pairs))
				for _, p := range pairs {
					before, ok := plan.Precedes(p[0], p[1])
					if !ok {
						t.Fatalf("plan has no orientation for edge %v", p)
					}
					if before {
						oriented = append(oriented, p)
					} else {
						oriented = append(oriented, [2]int64{p[1], p[0]})
					}
				}
				if err := c.OrientAll(oriented); err != nil {
					t.Fatalf("plan orientation is not a valid order: %v", err)
				}
				realized, err := c.CriticalPath(RemainingDemand)
				if err != nil {
					t.Fatalf("plan orientation leaves a cycle: %v", err)
				}
				if math.Abs(realized-plan.Value) > eps {
					t.Fatalf("plan claims Value %g but realizes %g", plan.Value, realized)
				}
				// (b) Optimality against brute force.
				best := bruteForceChainMin(t, g, pairs)
				if math.Abs(plan.Value-best) > eps {
					t.Fatalf("plan Value %g != brute-force optimum %g", plan.Value, best)
				}
			})
		}
	}
}
