package wtpg

import (
	"math/rand"
	"testing"

	"batchsched/internal/model"
)

// benchChain builds an n-node chain graph with random weights.
func benchChain(n int, seed int64) (*Graph, []*model.Txn) {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(1 + rng.Intn(9))
		y[i] = float64(1 + rng.Intn(9))
	}
	txns := chainTxns(x, y)
	g := New()
	for _, tx := range txns {
		g.Add(tx)
	}
	return g, txns
}

// BenchmarkOptimalChainOrientation measures GOW's Phase-2 optimization on a
// 32-node chain (far larger than typical simulation state).
func BenchmarkOptimalChainOrientation(b *testing.B) {
	g, _ := benchChain(32, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.OptimalChainOrientation(RemainingDemand); err != nil {
			b.Fatal(err)
		}
	}
}

// buildChainGraph adds transactions that pairwise conflict only along
// random disjoint chains (GOW's chain-form invariant), orienting a few edges
// to exercise the fixed-direction handling.
func buildChainGraph(r *rand.Rand, g *Graph, chains, maxLen int) {
	id := int64(1)
	file := 0
	for c := 0; c < chains; c++ {
		n := 1 + r.Intn(maxLen)
		prev := model.FileID(-1)
		for i := 0; i < n; i++ {
			// Each chain member shares one file with its predecessor and one
			// with its successor; files are globally unique otherwise.
			var files []model.FileID
			if prev >= 0 {
				files = append(files, prev)
			}
			next := model.FileID(file)
			file++
			files = append(files, next)
			g.Add(randTxn(r, id, files...))
			id++
			prev = next
		}
	}
	// Orient ~1/4 of the edges (closure keeps the graph consistent).
	ids := make([]int64, 0, int(id)-1)
	for x := int64(1); x < id; x++ {
		if g.Has(x) {
			ids = append(ids, x)
		}
	}
	for try := 0; try < len(ids); try++ {
		x := ids[r.Intn(len(ids))]
		y := ids[r.Intn(len(ids))]
		if x == y {
			continue
		}
		if _, _, d, ok := g.EdgeDir(x, y); ok && d == Undetermined && r.Intn(4) == 0 {
			_ = g.Orient(x, y)
		}
	}
}

// BenchmarkOrientAll measures one full Phase-2 planning pass — the optimal
// chain orientation over every component of a many-chain WTPG (the
// per-decision cost GOW pays on each contended lock request).
func BenchmarkOrientAll(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g := New()
	buildChainGraph(r, g, 64, 8)
	var plan Plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.OptimalChainOrientationInto(RemainingDemand, &plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures LOW's E(q) (clone + grant + critical path) on
// a 32-node chain.
func BenchmarkEvaluate(b *testing.B) {
	g, txns := benchChain(32, 7)
	t := txns[10]
	f := t.Steps[0].File
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(g, t, f, model.X, RemainingDemand)
	}
}

// BenchmarkChainFormAfterAdd measures GOW's Phase-0 admission test, the
// hottest scheduler call at saturation.
func BenchmarkChainFormAfterAdd(b *testing.B) {
	g, _ := benchChain(32, 7)
	probe := model.NewTxn(999, 0, []model.Step{
		{File: 5, Write: true, LockMode: model.X, Cost: 1, DeclaredCost: 1},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ChainFormAfterAdd(probe)
	}
}

// BenchmarkGrant measures orientation plus closure after a grant.
func BenchmarkGrant(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, txns := benchChain(24, int64(i))
		t := txns[11]
		b.StartTimer()
		if err := g.Grant(t, t.Steps[0].File, model.X); err != nil {
			b.Fatal(err)
		}
	}
}
