package machine

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"batchsched/internal/admit"
	"batchsched/internal/fault"
	"batchsched/internal/metrics"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/trace"
	"batchsched/internal/workload"
)

// The parallel decision engine (Params.DecisionWorkers; sched/parallel.go,
// DESIGN.md §17) must be observationally identical to the sequential
// scheduler: same grant/block/delay outcomes, same CPU charges, same audit
// records, same event traces — whether candidate scoring runs inline
// (DecisionWorkers 0/1) or fanned over a worker pool (>1). The oracle is the
// DecisionWorkers=0 scheduler the rest of the repo's suite already proves.

// decisionDiffFaults is the full fault cocktail (crashes, stragglers,
// message loss with timeout-and-retry) used across the differential grid.
var decisionDiffFaults = fault.Config{
	MTBF: 80 * sim.Second, MTTR: 5 * sim.Second,
	StragglerMTBF: 150 * sim.Second, StragglerDuration: 10 * sim.Second, StragglerFactor: 3,
	MsgLoss: 0.03, MsgTimeout: 5 * sim.Second, MsgRetries: 2,
}

// decisionDiffRun runs one full machine at the given decision fan-out and
// returns the summary plus the serialized event trace and scheduler audit.
// workers is Params.DecisionWorkers (0 = sequential oracle).
func decisionDiffRun(t *testing.T, name string, cfg Config, workers int, seed int64, wl Generator) (metrics.Summary, []byte, []byte) {
	t.Helper()
	p := sched.DefaultParams()
	p.DecisionWorkers = workers
	if wl == nil {
		wl = workload.NewExp1(16)
	}
	m, err := New(cfg, sched.MustNew(name, p), wl, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	m.SetObserver(trace.NewWriter(&tr))
	o := obs.New()
	m.SetObs(o)
	sum := m.Run()
	var au bytes.Buffer
	if err := o.WriteAuditJSONL(&au); err != nil {
		t.Fatal(err)
	}
	return sum, tr.Bytes(), au.Bytes()
}

// decisionDiffCompare runs the sequential oracle and every parallel width
// against it, failing on the first summary, trace or audit divergence.
func decisionDiffCompare(t *testing.T, label, name string, cfg Config, seed int64, wl Generator) {
	t.Helper()
	baseSum, baseTr, baseAu := decisionDiffRun(t, name, cfg, 0, seed, wl)
	for _, w := range []int{1, 4, 8} {
		sum, tr, au := decisionDiffRun(t, name, cfg, w, seed, wl)
		if !reflect.DeepEqual(baseSum, sum) {
			t.Errorf("%s workers=%d: summary diverged:\nseq: %+v\npar: %+v", label, w, baseSum, sum)
			return
		}
		if !bytes.Equal(baseTr, tr) {
			t.Errorf("%s workers=%d: traces differ (%d vs %d bytes)", label, w, len(baseTr), len(tr))
			return
		}
		if !bytes.Equal(baseAu, au) {
			t.Errorf("%s workers=%d: audit logs differ (%d vs %d bytes)", label, w, len(baseAu), len(au))
			return
		}
	}
}

// TestDecisionDiffGrid sweeps GOW and LOW across a DD ladder and the fault
// cocktail: byte-identical traces and audit JSONL at DecisionWorkers
// 1, 4 and 8 against the sequential oracle.
func TestDecisionDiffGrid(t *testing.T) {
	for _, name := range []string{"GOW", "LOW"} {
		for _, dd := range []int{1, 4, 16} {
			for _, withFaults := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.NumNodes = 16
				cfg.DD = dd
				cfg.ArrivalRate = 0.6
				cfg.Duration = 120_000 * sim.Millisecond
				if withFaults {
					cfg.Faults = decisionDiffFaults
				}
				label := name
				if withFaults {
					label += "+faults"
				}
				decisionDiffCompare(t, label, name, cfg, 7, nil)
			}
		}
	}
}

// TestDecisionDiffRandom is the 300-seed differential: each seed draws a
// scheduler, declustering degree, load level and fault toggle, and every
// DecisionWorkers width must reproduce the sequential run byte-for-byte.
func TestDecisionDiffRandom(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		g := sim.NewRNG(seed)
		name := "GOW"
		if g.Intn(2) == 0 {
			name = "LOW"
		}
		cfg := DefaultConfig()
		cfg.NumNodes = 8
		cfg.DD = []int{1, 2, 4, 8}[g.Intn(4)]
		cfg.ArrivalRate = 0.3 + 0.15*float64(g.Intn(5))
		cfg.Duration = 60_000 * sim.Millisecond
		if g.Intn(2) == 0 {
			cfg.Faults = decisionDiffFaults
		}
		decisionDiffCompare(t, name, name, cfg, seed, nil)
	}
}

// TestDecisionDiffScan pins the batch-scan workload — long declared scans
// build the deep WTPG chains where GOW's Phase-2 fan-out and LOW's K-wide
// candidate scoring actually have work to split.
func TestDecisionDiffScan(t *testing.T) {
	for _, name := range []string{"GOW", "LOW"} {
		cfg := DefaultConfig()
		cfg.NumNodes = 16
		cfg.DD = 16
		cfg.ArrivalRate = 0.15
		cfg.Duration = 120_000 * sim.Millisecond
		decisionDiffCompare(t, name+"/scan", name, cfg, 11, workload.NewBatchScan(16, 32))
	}
}

// TestDecisionPoolStoppedAfterRun: a run with a decision worker pool must
// leave no worker goroutines behind, on both the open (Run) and the closed
// (RunClosed) path. The batch-scan LOW runs score enough candidates per
// decision to start the pool's workers.
func TestDecisionPoolStoppedAfterRun(t *testing.T) {
	before := runtime.NumGoroutine()
	noLeak := func(path string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s: goroutine leak: %d before, %d after", path, before, n)
		}
	}
	p := sched.DefaultParams()
	p.DecisionWorkers = 4
	cfg := DefaultConfig()
	cfg.NumNodes = 16
	cfg.DD = 16
	cfg.ArrivalRate = 0
	cfg.Duration = 100_000 * sim.Millisecond
	scan := workload.NewBatchScan(16, 32)

	m, err := New(cfg, sched.MustNew("LOW", p), nil, sim.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewRNG(7)
	for i := 0; i < 24; i++ {
		m.Submit(scan.Steps(g))
	}
	if sum := m.RunClosed(1 << 40); sum.Completions != 24 {
		t.Fatalf("closed batch committed %d of 24", sum.Completions)
	}
	noLeak("RunClosed")

	cfg.ArrivalRate = 0.15
	for seed := int64(1); seed <= 5; seed++ {
		m, err := New(cfg, sched.MustNew("LOW", p), scan, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
	}
	noLeak("Run")
}

// decisionDiffService runs one service-mode machine (open arrivals through
// the admission service, so fillWindow's batched PrescreenAdmits path is
// exercised) and returns the summary, epoch stream and audit.
func decisionDiffService(t *testing.T, name string, cfg Config, workers int, seed int64) (metrics.Summary, []admit.EpochStats, []byte) {
	t.Helper()
	p := sched.DefaultParams()
	p.DecisionWorkers = workers
	m, err := New(cfg, sched.MustNew(name, p), workload.NewExp1(cfg.NumFiles), sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	var epochs []admit.EpochStats
	m.SetEpochHook(func(es admit.EpochStats) { epochs = append(epochs, es) })
	o := obs.New()
	m.SetObs(o)
	sum := m.Run()
	var au bytes.Buffer
	if err := o.WriteAuditJSONL(&au); err != nil {
		t.Fatal(err)
	}
	return sum, epochs, au.Bytes()
}

// TestDecisionDiffService compares service-mode runs — the admission
// prescreen (sched.AdmitScreener) only fires on multi-transaction window
// refills, which need open arrivals queuing behind a full window.
func TestDecisionDiffService(t *testing.T) {
	for _, name := range []string{"GOW", "LOW"} {
		for seed := int64(1); seed <= 10; seed++ {
			cfg := svcConfig(0.25)
			baseSum, baseEp, baseAu := decisionDiffService(t, name, cfg, 0, seed)
			for _, w := range []int{1, 4, 8} {
				sum, ep, au := decisionDiffService(t, name, cfg, w, seed)
				if !reflect.DeepEqual(baseSum, sum) {
					t.Fatalf("%s seed=%d workers=%d: service summary diverged:\nseq: %+v\npar: %+v",
						name, seed, w, baseSum, sum)
				}
				if !reflect.DeepEqual(baseEp, ep) {
					t.Fatalf("%s seed=%d workers=%d: epoch streams differ (%d vs %d epochs)",
						name, seed, w, len(baseEp), len(ep))
				}
				if !bytes.Equal(baseAu, au) {
					t.Fatalf("%s seed=%d workers=%d: audit logs differ (%d vs %d bytes)",
						name, seed, w, len(baseAu), len(au))
				}
			}
		}
	}
}
