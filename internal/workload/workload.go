// Package workload implements the paper's transaction generators:
//
//   - Experiment 1 — Pattern1 Xr(F1:1)->Xr(F2:5)->w(F1:0.2)->w(F2:1), with
//     F1 != F2 drawn uniformly from NumFiles files (high blocking).
//   - Experiment 2 — Pattern2 r(B:5)->w(F1:1)->w(F2:1), with B drawn from a
//     read-only set and F1 != F2 from a hot set (hot-set updating).
//   - Experiment 3 — Experiment 1 with Gaussian estimation error on the
//     declared I/O demands (sensitivity study).
//
// Every generator implements Generator, the interface both execution
// backends draw arrivals from.
package workload

import (
	"fmt"

	"batchsched/internal/model"
	"batchsched/internal/sim"
)

// Pattern1 is the Experiment-1 template: the first two read steps take
// X locks, which makes conflicting transactions block early and often.
var Pattern1 = model.MustParsePattern("Xr(F1:1)->Xr(F2:5)->w(F1:0.2)->w(F2:1)")

// Pattern2 is the Experiment-2 template: a 5-object read of a read-only
// file followed by two 1-object updates of hot files.
var Pattern2 = model.MustParsePattern("r(B:5)->w(F1:1)->w(F2:1)")

// Exp1 generates Pattern1 instances over NumFiles files.
type Exp1 struct {
	// NumFiles is the number of files F1 and F2 are drawn from.
	NumFiles int
}

// NewExp1 returns an Experiment-1 generator.
func NewExp1(numFiles int) Exp1 {
	if numFiles < 2 {
		panic(fmt.Sprintf("workload: Experiment 1 needs >= 2 files, got %d", numFiles))
	}
	return Exp1{NumFiles: numFiles}
}

// Steps instantiates Pattern1 on two distinct random files.
func (g Exp1) Steps(rng *sim.RNG) []model.Step {
	f1, f2 := rng.TwoDistinct(g.NumFiles)
	steps, err := Pattern1.Instantiate(map[string]model.FileID{
		"F1": model.FileID(f1),
		"F2": model.FileID(f2),
	})
	if err != nil {
		panic(err)
	}
	return steps
}

// Exp2 generates Pattern2 instances: B from the read-only set
// [0, ReadOnly), F1 != F2 from the hot set [ReadOnly, ReadOnly+Hot). With
// the paper's 8 nodes and 8+8 files, every node is home to exactly one
// read-only and one hot file.
type Exp2 struct {
	// ReadOnly is the number of read-only files (ids 0..ReadOnly-1).
	ReadOnly int
	// Hot is the number of hot files (ids ReadOnly..ReadOnly+Hot-1).
	Hot int
}

// NewExp2 returns the paper's Experiment-2 generator (8 read-only and 8 hot
// files).
func NewExp2() Exp2 { return Exp2{ReadOnly: 8, Hot: 8} }

// Steps instantiates Pattern2 on one random read-only file and two distinct
// random hot files.
func (g Exp2) Steps(rng *sim.RNG) []model.Step {
	if g.ReadOnly < 1 || g.Hot < 2 {
		panic("workload: Experiment 2 needs >= 1 read-only and >= 2 hot files")
	}
	b := rng.Intn(g.ReadOnly)
	h1, h2 := rng.TwoDistinct(g.Hot)
	steps, err := Pattern2.Instantiate(map[string]model.FileID{
		"B":  model.FileID(b),
		"F1": model.FileID(g.ReadOnly + h1),
		"F2": model.FileID(g.ReadOnly + h2),
	})
	if err != nil {
		panic(err)
	}
	return steps
}

// NumFiles returns the total file count of the Experiment-2 database.
func (g Exp2) NumFiles() int { return g.ReadOnly + g.Hot }

// BatchScan generates the heavy whole-file batch transactions the paper's
// introduction motivates: each transaction X-locks and scans one whole file
// of Objects objects, then rewrites a second distinct file of the same size.
// With Objects much larger than Pattern1's step costs, each cohort is sliced
// into Objects round-robin quanta at full declustering — the configuration
// where the DPN service engine dominates simulator wall time, used by the
// tracked Run benchmarks (BENCH_core.json).
type BatchScan struct {
	// NumFiles is the number of files the two scans are drawn from.
	NumFiles int
	// Objects is the file size in objects (the cost of each step at DD=1).
	Objects float64
}

// NewBatchScan returns a whole-file batch-scan generator.
func NewBatchScan(numFiles int, objects float64) BatchScan {
	if numFiles < 2 {
		panic(fmt.Sprintf("workload: batch scan needs >= 2 files, got %d", numFiles))
	}
	if objects <= 0 {
		panic(fmt.Sprintf("workload: batch scan needs a positive file size, got %g", objects))
	}
	return BatchScan{NumFiles: numFiles, Objects: objects}
}

// Steps instantiates one read-rewrite batch on two distinct random files.
func (g BatchScan) Steps(rng *sim.RNG) []model.Step {
	f1, f2 := rng.TwoDistinct(g.NumFiles)
	return []model.Step{
		{File: model.FileID(f1), LockMode: model.X, Cost: g.Objects, DeclaredCost: g.Objects},
		{File: model.FileID(f2), Write: true, LockMode: model.X, Cost: g.Objects, DeclaredCost: g.Objects},
	}
}

// Generator produces the declared steps of successive transactions, one
// call per arrival (machine.Generator is an alias).
type Generator interface {
	Steps(rng *sim.RNG) []model.Step
}

// DrawBatch pre-draws the steps of a closed batch of n transactions from
// gen on the seed's "workload" stream. Open runs on both backends draw each
// arrival's steps from that same stream in arrival order, so transaction i
// of the batch is the i-th arrival of an open run with the same generator
// and seed, and one batch can be submitted to both backends.
func DrawBatch(gen Generator, seed int64, n int) [][]model.Step {
	rng := sim.NewRNG(seed).Stream("workload")
	out := make([][]model.Step, n)
	for i := range out {
		out[i] = gen.Steps(rng)
	}
	return out
}

// WithError wraps a generator with the Experiment-3 estimation-error model:
// each step's declared cost becomes C0*(1+x) with x ~ N(0, sigma²), clamped
// to 0 when x <= -1. Actual execution costs are untouched.
type WithError struct {
	// Gen is the underlying generator.
	Gen Generator
	// Sigma is the standard deviation of the relative error.
	Sigma float64
}

// Steps draws steps from the wrapped generator and perturbs the declared
// costs.
func (g WithError) Steps(rng *sim.RNG) []model.Step {
	steps := g.Gen.Steps(rng)
	if g.Sigma <= 0 {
		return steps
	}
	for i := range steps {
		x := rng.Norm(0, g.Sigma)
		if x <= -1 {
			steps[i].DeclaredCost = 0
			continue
		}
		steps[i].DeclaredCost = steps[i].Cost * (1 + x)
	}
	return steps
}

// Fixed replays one fixed step sequence forever (tests, examples and
// ablations).
type Fixed struct {
	// Template is the steps to copy on every call.
	Template []model.Step
}

// Steps returns a copy of the template.
func (g Fixed) Steps(*sim.RNG) []model.Step {
	out := make([]model.Step, len(g.Template))
	copy(out, g.Template)
	return out
}

// Mixed interleaves a batch workload with short transactions — the OLTP
// mix the paper's introduction motivates (debit-credit-style jobs plus
// periodic bulk updates). With probability ShortFraction a transaction is a
// single tiny S- or X-step on one uniform random file; otherwise it comes
// from Batch. File-granularity locking makes this a coarse model of
// short-transaction processing (the paper notes real systems use
// record-level locks for them), which is exactly why a dedicated batch
// scheduler matters: under file locks a batch blocks every short
// transaction on its files.
type Mixed struct {
	// Batch produces the batch transactions.
	Batch Generator
	// NumFiles is the file range for short transactions.
	NumFiles int
	// ShortFraction is the probability an arrival is short.
	ShortFraction float64
	// ShortCost is the I/O demand of a short transaction in objects
	// (e.g. 0.01 = one 25 KB record read at the paper's 2.5 MB objects).
	ShortCost float64
	// ShortWrites makes short transactions updates rather than reads.
	ShortWrites bool
}

// Steps draws either a short transaction or a batch.
func (g Mixed) Steps(rng *sim.RNG) []model.Step {
	if rng.Float64() >= g.ShortFraction {
		return g.Batch.Steps(rng)
	}
	mode := model.S
	if g.ShortWrites {
		mode = model.X
	}
	return []model.Step{{
		File:         model.FileID(rng.Intn(g.NumFiles)),
		Write:        g.ShortWrites,
		LockMode:     mode,
		Cost:         g.ShortCost,
		DeclaredCost: g.ShortCost,
	}}
}
