package machine

import (
	"fmt"
	"strings"
	"testing"

	"batchsched/internal/engine"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

func steps(pattern string, binding map[string]model.FileID) []model.Step {
	p := model.MustParsePattern(pattern)
	s, err := p.Instantiate(binding)
	if err != nil {
		panic(err)
	}
	return s
}

func quietConfig(dd int) Config {
	cfg := DefaultConfig()
	cfg.ArrivalRate = 0
	cfg.DD = dd
	cfg.Duration = 100_000 * sim.Millisecond
	return cfg
}

func newMachine(t *testing.T, cfg Config, schedName string) *Machine {
	t.Helper()
	m, err := New(cfg, sched.MustNew(schedName, sched.DefaultParams()), nil, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumNodes = 0 },
		func(c *Config) { c.NumFiles = 0 },
		func(c *Config) { c.DD = 0 },
		func(c *Config) { c.DD = c.NumNodes + 1 },
		func(c *Config) { c.ObjTime = 0 },
		func(c *Config) { c.NumNodes, c.DD, c.ObjTime = 16, 16, 15 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.ArrivalRate = -1 },
		func(c *Config) { c.Warmup = c.Duration },
		func(c *Config) { c.MsgTime = -1 },
		func(c *Config) { c.MPL = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestPlacement(t *testing.T) {
	p := engine.Placement{NumNodes: 8, DD: 1}
	if p.Home(0) != 0 || p.Home(7) != 7 || p.Home(8) != 0 || p.Home(13) != 5 {
		t.Error("home node must be fileID mod NumNodes")
	}
	if n := p.NodesInto(3, nil); len(n) != 1 || n[0] != 3 {
		t.Errorf("DD=1 nodes = %v", n)
	}
	p.DD = 4
	if n := p.NodesInto(6, nil); len(n) != 4 || n[0] != 6 || n[1] != 7 || n[2] != 0 || n[3] != 1 {
		t.Errorf("DD=4 nodes of file 6 = %v, want [6 7 0 1] (wrapping)", n)
	}
}

// TestSingleTxnTiming verifies the execution model's accounting end to end:
// admit (sot 2ms) + request (0) + send msg (2ms) + scan 2 objects (2000ms)
// + receive msg (2ms) + commit (7ms) = 2013 ms.
func TestSingleTxnTiming(t *testing.T) {
	m := newMachine(t, quietConfig(1), "NODC")
	txn := m.Submit(steps("w(A:2)", map[string]model.FileID{"A": 0}))
	sum := m.Run()
	if sum.Completions != 1 {
		t.Fatalf("completions = %d, want 1", sum.Completions)
	}
	if want := 2013 * sim.Millisecond; sum.MeanRT != want {
		t.Errorf("RT = %v, want %v", sum.MeanRT, want)
	}
	if txn.Status != model.Committed {
		t.Error("transaction must be committed")
	}
	// Two steps' messages... one step: 2 msgs = 4ms; + sot 2 + cot 7 = 13ms CN busy.
	if got := sum.CNUtilization * sum.Window.Seconds(); got < 0.012 || got > 0.014 {
		t.Errorf("CN busy seconds = %v, want 0.013", got)
	}
}

// TestDeclusteringSpeedsUpSingleTxn: with DD=2 the same 2-object scan runs
// as two 1-object cohorts in parallel: 1000ms of service instead of 2000.
func TestDeclusteringSpeedsUpSingleTxn(t *testing.T) {
	m := newMachine(t, quietConfig(2), "NODC")
	m.Submit(steps("w(A:2)", map[string]model.FileID{"A": 0}))
	sum := m.Run()
	if want := 1013 * sim.Millisecond; sum.MeanRT != want {
		t.Errorf("RT = %v, want %v", sum.MeanRT, want)
	}
}

// TestRoundRobinFairness: two equal cohorts on one node finish in
// interleaved quanta; both take ~2x their isolated service time and finish
// one quantum apart.
func TestRoundRobinFairness(t *testing.T) {
	m := newMachine(t, quietConfig(1), "NODC")
	// Two 2-object scans of different files with the same home node 0
	// (files 0 and 8 with 8 nodes).
	m.Submit(steps("w(A:2)", map[string]model.FileID{"A": 0}))
	m.Submit(steps("w(B:2)", map[string]model.FileID{"B": 8}))
	sum := m.Run()
	if sum.Completions != 2 {
		t.Fatalf("completions = %d, want 2", sum.Completions)
	}
	// Quanta (1 object = 1000ms): A B A B -> A ends at ~3000+13ms service
	// path, B at ~4000+13. Mean = 3513 + msg queueing jitter of a few ms.
	lo, hi := 3500*sim.Millisecond, 3530*sim.Millisecond
	if sum.MeanRT < lo || sum.MeanRT > hi {
		t.Errorf("mean RT = %v, want ~3513ms (round-robin interleave)", sum.MeanRT)
	}
	if sum.P50RT >= sum.MaxRT {
		t.Errorf("expected staggered completions, got P50=%v max=%v", sum.P50RT, sum.MaxRT)
	}
}

// TestLockingSerializesConflicts: under C2PL, a second writer of the same
// file waits for the first to commit.
func TestLockingSerializesConflicts(t *testing.T) {
	m := newMachine(t, quietConfig(1), "C2PL")
	m.Submit(steps("w(A:2)", map[string]model.FileID{"A": 0}))
	m.Submit(steps("w(A:2)", map[string]model.FileID{"A": 0}))
	sum := m.Run()
	if sum.Completions != 2 {
		t.Fatalf("completions = %d, want 2", sum.Completions)
	}
	// Serial execution: first ~2013ms, second ~4026ms.
	if sum.MaxRT < 4000*sim.Millisecond {
		t.Errorf("max RT = %v; conflicting writers must serialize", sum.MaxRT)
	}
	if sum.Blocks == 0 {
		t.Error("expected at least one block")
	}
}

// TestNODCDoesNotSerialize: the same conflicting pair overlaps freely under
// NODC.
func TestNODCDoesNotSerialize(t *testing.T) {
	m := newMachine(t, quietConfig(1), "NODC")
	m.Submit(steps("w(A:2)", map[string]model.FileID{"A": 0}))
	m.Submit(steps("w(A:2)", map[string]model.FileID{"A": 0}))
	sum := m.Run()
	// Round-robin sharing: both finish around 4s; no blocking.
	if sum.Blocks != 0 {
		t.Errorf("NODC blocked %d times", sum.Blocks)
	}
	if sum.MaxRT > 4100*sim.Millisecond {
		t.Errorf("max RT = %v, want interleaved (~4s), not serialized", sum.MaxRT)
	}
}

// TestOPTRestart: a read-write conflict forces the slower optimistic
// transaction to restart and re-execute.
func TestOPTRestart(t *testing.T) {
	m := newMachine(t, quietConfig(1), "OPT")
	// Long reader of A and quick writer of A on different home nodes is
	// impossible (same file) — they share node 0 and round-robin. The
	// writer (1 object) finishes and commits first; the reader (5 objects)
	// then fails validation and restarts.
	m.Submit(steps("r(A:5)->w(B:0.2)", map[string]model.FileID{"A": 0, "B": 1}))
	m.Submit(steps("w(A:1)", map[string]model.FileID{"A": 0}))
	sum := m.Run()
	if sum.Completions != 2 {
		t.Fatalf("completions = %d, want 2", sum.Completions)
	}
	if sum.Restarts == 0 {
		t.Error("expected the reader to restart at least once")
	}
}

// TestMachineMPL: with a machine-level MPL of 1 even NODC serializes
// admissions.
func TestMachineMPL(t *testing.T) {
	cfg := quietConfig(1)
	cfg.MPL = 1
	m := newMachine(t, cfg, "NODC")
	m.Submit(steps("w(A:1)", map[string]model.FileID{"A": 0}))
	m.Submit(steps("w(B:1)", map[string]model.FileID{"B": 1}))
	sum := m.Run()
	if sum.Completions != 2 {
		t.Fatalf("completions = %d, want 2", sum.Completions)
	}
	// Second must start only after the first commits: ~1013 + ~1013.
	if sum.MaxRT < 2020*sim.Millisecond {
		t.Errorf("max RT = %v, want > 2.02s (serialized by MPL)", sum.MaxRT)
	}
}

// TestUtilizationAccounting: a single 8-object scan at DD=1 keeps one of 8
// nodes busy 8s.
func TestUtilizationAccounting(t *testing.T) {
	cfg := quietConfig(1)
	cfg.Duration = 10_000 * sim.Millisecond
	m := newMachine(t, cfg, "NODC")
	m.Submit(steps("w(A:8)", map[string]model.FileID{"A": 3}))
	sum := m.Run()
	if got := sum.PerDPNUtilization[3]; got < 0.79 || got > 0.81 {
		t.Errorf("node 3 utilization = %v, want ~0.8", got)
	}
	for i, u := range sum.PerDPNUtilization {
		if i != 3 && u != 0 {
			t.Errorf("node %d utilization = %v, want 0", i, u)
		}
	}
	if sum.DPNUtilization < 0.09 || sum.DPNUtilization > 0.11 {
		t.Errorf("mean DPN utilization = %v, want ~0.1", sum.DPNUtilization)
	}
}

// TestDeterminism: identical seeds give identical summaries.
func TestDeterminism(t *testing.T) {
	run := func() string {
		cfg := DefaultConfig()
		cfg.ArrivalRate = 0.5
		cfg.Duration = 200_000 * sim.Millisecond
		m, err := New(cfg, sched.MustNew("LOW", sched.DefaultParams()), uniformGen{}, sim.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		return m.Run().String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic runs:\n%s\n%s", a, b)
	}
}

// uniformGen is a minimal generator for machine tests: Experiment-1 pattern
// over 16 files.
type uniformGen struct{}

func (uniformGen) Steps(rng *sim.RNG) []model.Step {
	f1, f2 := rng.TwoDistinct(16)
	p := model.MustParsePattern("Xr(F1:1)->Xr(F2:5)->w(F1:0.2)->w(F2:1)")
	s, err := p.Instantiate(map[string]model.FileID{"F1": model.FileID(f1), "F2": model.FileID(f2)})
	if err != nil {
		panic(err)
	}
	return s
}

// TestLowLoadDrainsForAllSchedulers: at a light load every scheduler
// completes everything it admits, with no transaction stuck forever.
func TestLowLoadDrainsForAllSchedulers(t *testing.T) {
	for _, name := range sched.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			p := sched.DefaultParams()
			if name == "C2PL+M" {
				p.MPL = 4
			}
			cfg := DefaultConfig()
			cfg.ArrivalRate = 0.3
			if name == "OPT" {
				// OPT thrashes on restarts well below the others' capacity
				// (its RT=70s point in the paper's Table 2 is ~0.24 TPS);
				// drain it at a load it can sustain.
				cfg.ArrivalRate = 0.1
			}
			cfg.Duration = 400_000 * sim.Millisecond
			m, err := New(cfg, sched.MustNew(name, p), uniformGen{}, sim.NewRNG(7))
			if err != nil {
				t.Fatal(err)
			}
			sum := m.Run()
			if sum.Arrivals < 25 {
				t.Fatalf("arrivals = %d, too few to be meaningful", sum.Arrivals)
			}
			// Everything that arrived long before the horizon completes.
			if sum.Completions < sum.Arrivals-10 {
				t.Errorf("completions = %d of %d arrivals: transactions stuck",
					sum.Completions, sum.Arrivals)
			}
			if name != "OPT" && name != "2PL" && sum.Restarts != 0 {
				t.Errorf("%s restarted %d times; only OPT and 2PL restart", name, sum.Restarts)
			}
		})
	}
}

// delayAll admits everything and policy-delays every lock request, so no
// step ever runs and no commit ever comes to wake anyone.
type delayAll struct{}

func (delayAll) Name() string                         { return "delay-all" }
func (delayAll) Admit(*model.Txn) (bool, sim.Time)    { return true, 0 }
func (delayAll) Validate(*model.Txn) (bool, sim.Time) { return true, 0 }
func (delayAll) Committed(*model.Txn)                 {}
func (delayAll) Aborted(*model.Txn)                   {}
func (delayAll) Request(*model.Txn) sched.Outcome {
	return sched.Outcome{Decision: sched.Delay}
}

// TestStuckBatchStopsAtStall: a closed batch that can no longer progress
// stops at the stall, not at the horizon, even with an observer whose
// samples keep the calendar busy, and fails with the control node's stuck
// error naming every waiter, as the live backend's batch does.
func TestStuckBatchStopsAtStall(t *testing.T) {
	cfg := quietConfig(1)
	cfg.Duration = 2000 * sim.Second
	m, err := New(cfg, delayAll{}, nil, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m.SetObs(obs.New())
	gen, rng := workload.NewExp1(cfg.NumFiles), sim.NewRNG(3).Stream("workload")
	batch := make([][]model.Step, 5)
	for i := range batch {
		batch[i] = gen.Steps(rng)
	}
	sum, err := m.RunBatch(batch)
	if err == nil {
		t.Fatal("no error for a batch that cannot finish")
	}
	if sum.Window >= sim.Second {
		t.Errorf("stuck batch ran to %v, want it stopped at the stall", sum.Window)
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "run stuck with 0 committed and 5 waiting") {
		t.Errorf("error %q is not the control node's stuck error", msg)
	}
	for i := 1; i <= len(batch); i++ {
		if want := fmt.Sprintf("T%d delayed at step 0", i); !strings.Contains(msg, want) {
			t.Errorf("error %q lacks %q", msg, want)
		}
	}
}
