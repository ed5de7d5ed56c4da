package batchsched

import (
	"os"
	"testing"
	"time"

	"batchsched/internal/experiments"
	"batchsched/internal/machine"
	"batchsched/internal/model"
	"batchsched/internal/obs/sli"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// Per-artifact benchmarks. Each iteration regenerates one of the paper's
// tables or figures at a reduced scale (100-second windows, coarse solver)
// so that `go test -bench .` finishes in minutes; cmd/paperbench regenerates
// them at the paper's full 2,000,000-ms scale.

func benchOptions() experiments.Options {
	return experiments.Options{
		Duration:  100_000 * sim.Millisecond,
		SolverTol: 0.1,
		Seed:      1,
	}
}

func benchArtifact(b *testing.B, id string) {
	b.Helper()
	a, ok := experiments.FindArtifact(id)
	if !ok {
		b.Fatalf("unknown artifact %q", id)
	}
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := a.Run(o)
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8 (arrival rate vs response time, 6
// schedulers).
func BenchmarkFig8(b *testing.B) { benchArtifact(b, "fig8") }

// BenchmarkTable2 regenerates Table 2 (NumFiles vs throughput at RT=70s).
func BenchmarkTable2(b *testing.B) { benchArtifact(b, "table2") }

// BenchmarkFig9 regenerates Fig. 9 (declustering vs throughput at RT=70s).
func BenchmarkFig9(b *testing.B) { benchArtifact(b, "fig9") }

// BenchmarkTable3 regenerates Table 3 (declustering vs response time at
// 1.2 TPS, C2PL+M at its best admission limit).
func BenchmarkTable3(b *testing.B) { benchArtifact(b, "table3") }

// BenchmarkFig10 regenerates Fig. 10 (declustering vs response-time
// speedup).
func BenchmarkFig10(b *testing.B) { benchArtifact(b, "fig10") }

// BenchmarkFig11 regenerates Fig. 11 (arrival rate vs speedup at DD=4).
func BenchmarkFig11(b *testing.B) { benchArtifact(b, "fig11") }

// BenchmarkTable4 regenerates Table 4 (Experiment 2 throughput and response
// time).
func BenchmarkTable4(b *testing.B) { benchArtifact(b, "table4") }

// BenchmarkFig12 regenerates Fig. 12 (Experiment 2 declustering vs
// speedup).
func BenchmarkFig12(b *testing.B) { benchArtifact(b, "fig12") }

// BenchmarkFig13 regenerates Fig. 13 (estimation error vs throughput).
func BenchmarkFig13(b *testing.B) { benchArtifact(b, "fig13") }

// BenchmarkTable5 regenerates Table 5 (sensitivity degradation ratios).
func BenchmarkTable5(b *testing.B) { benchArtifact(b, "table5") }

// Engine-level benchmarks: the cost of one full simulated run per scheduler
// on the fully declustered DD=16 machine under the whole-file batch-scan
// workload (32-object files) — the configuration where each cohort is sliced
// into the most round-robin quanta and the DPN service engine dominates wall
// time.
//
// Each run also reports events/op, the calendar events the engine dispatched
// (Engine.Executed): the fast-forward DPN coalesces a cohort's quanta into
// one completion event, and this metric tracks that win alongside ns/op in
// BENCH_core.json. Set BENCH_QUANTUM_STEPPED=1 to run the quantum-per-event
// oracle instead (Config.QuantumStepped) — that is how the "pre" snapshot of
// BENCH_core.json is produced.

func benchOneRun(b *testing.B, scheduler string, lambda float64) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.NumNodes = 16
	cfg.DD = 16
	cfg.ArrivalRate = lambda
	cfg.Duration = 200_000 * Millisecond
	cfg.QuantumStepped = os.Getenv("BENCH_QUANTUM_STEPPED") == "1"
	gen := NewBatchScanWorkload(16, 32)
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		s, err := sched.New(scheduler, DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		m, err := machine.New(cfg, s, gen, sim.NewRNG(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if sum := m.Run(); sum.Completions == 0 {
			b.Fatal("no completions")
		}
		events += m.Engine().Executed()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// Arrival rates sit at the mid-range of each scheduler's operating region
// for the 4-machine-second batch-scan transactions (saturation is ~0.25
// TPS), mirroring Fig. 8's per-scheduler load points.

// BenchmarkRunNODC measures simulator throughput with no concurrency
// control at all (pure machine model).
func BenchmarkRunNODC(b *testing.B) { benchOneRun(b, "NODC", 0.20) }

// BenchmarkRunASL measures a run under atomic static locking.
func BenchmarkRunASL(b *testing.B) { benchOneRun(b, "ASL", 0.15) }

// BenchmarkRunGOW measures a run under the chain-form WTPG scheduler.
func BenchmarkRunGOW(b *testing.B) { benchOneRun(b, "GOW", 0.15) }

// BenchmarkRunLOW measures a run under the K-conflict WTPG scheduler.
func BenchmarkRunLOW(b *testing.B) { benchOneRun(b, "LOW", 0.15) }

// BenchmarkRunC2PL measures a run under cautious two-phase locking.
func BenchmarkRunC2PL(b *testing.B) { benchOneRun(b, "C2PL", 0.08) }

// BenchmarkRunOPT measures a run under optimistic locking (includes
// restart churn).
func BenchmarkRunOPT(b *testing.B) { benchOneRun(b, "OPT", 0.05) }

// Decision benchmarks: the latency of one GOW/LOW lock-request decision at
// a contended steady state. Both scenarios are built so the scheduler
// answers Delay, which leaves the WTPG untouched — the identical decision
// can then be re-taken every iteration.

func benchWriteStep(f int, cost float64) model.Step {
	return model.Step{File: model.FileID(f), Write: true, LockMode: model.X,
		Cost: cost, DeclaredCost: cost}
}

// newDecisionGOW builds a GOW instance with chains conflicting chains of
// length chainLen (the Phase-2 component fan-out) plus one two-transaction
// component whose members share file 0. The perpetual requester is the pair
// member the optimized order W places second — its request is consistently
// delayed in Phase 3 — and swap picks which member plays that role.
func newDecisionGOW(p sched.Params, chains, chainLen int, swap bool) (sched.Scheduler, *model.Txn) {
	s := sched.MustNew("GOW", p)
	id := int64(1)
	admit := func(steps ...model.Step) *model.Txn {
		t := model.NewTxn(id, 0, steps)
		id++
		if ok, _ := s.Admit(t); !ok {
			panic("bench: GOW refused a chain-form admission")
		}
		return t
	}
	a := admit(benchWriteStep(0, 1))
	c := admit(benchWriteStep(0, 1), benchWriteStep(1, 50))
	if swap {
		a, c = c, a
	}
	_ = a
	file := 2
	for ch := 0; ch < chains; ch++ {
		prev := -1
		for i := 0; i < chainLen; i++ {
			var steps []model.Step
			if prev >= 0 {
				steps = append(steps, benchWriteStep(prev, 1))
			}
			steps = append(steps, benchWriteStep(file, 1))
			prev = file
			file++
			admit(steps...)
		}
	}
	return s, c
}

// BenchmarkDecisionGOW measures one GOW lock-request decision — Phases 1-3
// with the full Phase-2 optimized order over every chain component — at a
// steady Delay point. decision_ns_per_op duplicates ns/op under the metric
// name the benchjson gate tracks.
func BenchmarkDecisionGOW(b *testing.B) {
	p := sched.DefaultParams()
	s, req := newDecisionGOW(p, 64, 8, false)
	if out := s.Request(req); out.Decision != sched.Delay {
		// W ordered the pair the other way: the roles are swapped, and that
		// first Grant mutated the graph, so rebuild from scratch.
		s, req = newDecisionGOW(p, 64, 8, true)
		if out := s.Request(req); out.Decision != sched.Delay {
			b.Fatalf("no stable Delay requester (got %v)", out.Decision)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Request(req); out.Decision != sched.Delay {
			b.Fatalf("decision drifted to %v", out.Decision)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "decision_ns_per_op")
}

// BenchmarkDecisionLOW measures one LOW lock-request decision — E(q) plus
// the E(p) scan over every conflicting declaration on a hot file — at a
// steady Delay point: the conflicters are ordered so the one beating E(q)
// comes last, which makes the decision walk the entire candidate list
// before delaying (the worst case).
func BenchmarkDecisionLOW(b *testing.B) {
	const residents = 16
	p := sched.DefaultParams()
	p.K = residents
	s := sched.MustNew("LOW", p)
	id := int64(1)
	admit := func(steps ...model.Step) *model.Txn {
		t := model.NewTxn(id, 0, steps)
		id++
		if ok, _ := s.Admit(t); !ok {
			b.Fatal("LOW refused an admission within the K bound")
		}
		return t
	}
	priv := 1
	for i := 0; i < residents-1; i++ { // huge remaining demand: E(p) >= E(q)
		admit(benchWriteStep(0, 1), benchWriteStep(priv, 1000))
		priv++
	}
	admit(benchWriteStep(0, 1), benchWriteStep(priv, 1)) // tiny: E(p) < E(q), last
	priv++
	req := admit(benchWriteStep(0, 1), benchWriteStep(priv, 100))
	if out := s.Request(req); out.Decision != sched.Delay {
		b.Fatalf("expected a steady Delay, got %v", out.Decision)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Request(req); out.Decision != sched.Delay {
			b.Fatalf("decision drifted to %v", out.Decision)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "decision_ns_per_op")
}

// BenchmarkSustainedTPSAtSLO runs the service-mode capacity probe per
// iteration — bisecting the open arrival rate for the largest sustained
// throughput that still meets the default service SLO on a reduced GOW point
// — and reports the solved rate as sustained_tps_at_slo. The figure is
// tracked in BENCH_core.json and gated by benchjson -compare (higher is
// better), so a scheduler or admission change that
// quietly erodes open-stream capacity fails CI even when ns/op is flat.
func BenchmarkSustainedTPSAtSLO(b *testing.B) {
	pol := DefaultAdmitPolicy()
	pol.MPL = 4
	p := experiments.Point{
		Scheduler: "GOW",
		NumFiles:  16,
		DD:        1,
		Load:      experiments.Exp1,
		Seed:      1,
		Reps:      1,
		Duration:  100_000 * sim.Millisecond,
		Service:   &pol,
	}
	spec := sli.ServiceDefault()
	b.ReportAllocs()
	var tps float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.ServiceCapacity(p, spec, 1, 0.05, 0.5, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed {
			b.Fatal("no sustained rate inside the bracket")
		}
		tps = res.SustainedTPS
	}
	b.ReportMetric(tps, "sustained_tps_at_slo")
}

// BenchmarkObsOverhead runs the same simulation twice per iteration — once
// bare and once with the full observability layer attached (spans, registry
// sampling, audit) — and reports their wall-time ratio as obs_overhead
// (1.0 = free, 1.10 = 10% slower instrumented). The ratio is tracked in
// BENCH_core.json and gated by benchjson -compare, so instrumentation cost
// creep fails CI the same way an ns/op regression does.
func BenchmarkObsOverhead(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumNodes = 16
	cfg.DD = 4
	cfg.ArrivalRate = 0.15
	cfg.Duration = 100_000 * Millisecond
	gen := NewBatchScanWorkload(16, 32)
	run := func(seed int64, ob *Obs) {
		s, err := sched.New("LOW", DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		m, err := machine.New(cfg, s, gen, sim.NewRNG(seed))
		if err != nil {
			b.Fatal(err)
		}
		m.SetObs(ob)
		if sum := m.Run(); sum.Completions == 0 {
			b.Fatal("no completions")
		}
	}
	b.ReportAllocs()
	var plain, instrumented time.Duration
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		t0 := time.Now()
		run(seed, nil)
		t1 := time.Now()
		run(seed, NewObs())
		instrumented += time.Since(t1)
		plain += t1.Sub(t0)
	}
	if plain > 0 {
		b.ReportMetric(instrumented.Seconds()/plain.Seconds(), "obs_overhead")
	}
}
