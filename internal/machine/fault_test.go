package machine

import (
	"bytes"
	"reflect"
	"testing"

	"batchsched/internal/engine"
	"batchsched/internal/fault"
	"batchsched/internal/model"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/trace"
	"batchsched/internal/workload"
)

// faultyConfig is a one-node machine so every injected crash/straggler is
// guaranteed to hit the node serving the workload.
func faultyConfig() Config {
	cfg := DefaultConfig()
	cfg.NumNodes = 1
	cfg.NumFiles = 1
	cfg.ArrivalRate = 0
	cfg.Duration = 600_000 * sim.Millisecond
	return cfg
}

// TestCrashAbortsAndRecovers: a 30s scan on a node with a 60s MTBF is killed
// by crashes but must eventually commit once it catches a clean window, with
// every fault counter and the availability integral reflecting the outages.
func TestCrashAbortsAndRecovers(t *testing.T) {
	cfg := faultyConfig()
	cfg.Faults = fault.Config{MTBF: 60 * sim.Second, MTTR: 5 * sim.Second}
	cfg.RestartDelay = 2 * sim.Second
	m := newMachine(t, cfg, "LOW")
	txn := m.Submit(steps("w(A:30)", map[string]model.FileID{"A": 0}))
	sum := m.Run()
	if sum.Crashes == 0 {
		t.Fatal("no crashes injected in 600s at MTBF 60s — injector not running")
	}
	if sum.Completions != 1 || txn.Status != model.Committed {
		t.Fatalf("completions = %d, status = %v: crash victim never recovered", sum.Completions, txn.Status)
	}
	if sum.CrashAborts == 0 || sum.Restarts < sum.CrashAborts {
		t.Errorf("crashAborts = %d, restarts = %d: aborts must be counted as restarts", sum.CrashAborts, sum.Restarts)
	}
	if sum.DownTime <= 0 {
		t.Error("DownTime must integrate the outages")
	}
	if a := sum.Availability(); a >= 1 || a <= 0 {
		t.Errorf("availability = %v, want in (0, 1) with crashes present", a)
	}
}

// TestCrashScheduleIsWorkloadIndependent: the fault schedule (crash, restore,
// slow, slowend transitions) must depend only on (seed, fault config) — never
// on the scheduler under test or the offered load — so that Exp4 compares all
// schedulers against the identical fault trace.
func TestCrashScheduleIsWorkloadIndependent(t *testing.T) {
	fc := fault.Config{
		MTBF: 80 * sim.Second, MTTR: 6 * sim.Second,
		StragglerMTBF: 120 * sim.Second, StragglerDuration: 15 * sim.Second, StragglerFactor: 3,
	}
	schedule := func(schedName string, lambda float64) []faultTransition {
		cfg := DefaultConfig()
		cfg.ArrivalRate = lambda
		cfg.Duration = 500_000 * sim.Millisecond
		cfg.RestartDelay = 2 * sim.Second
		cfg.Faults = fc
		m, err := New(cfg, sched.MustNew(schedName, sched.DefaultParams()), workload.NewExp1(cfg.NumFiles), sim.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		obs := &faultObs{}
		m.SetObserver(obs)
		m.Run()
		return obs.transitions
	}
	ref := schedule("LOW", 0.6)
	if len(ref) == 0 {
		t.Fatal("no fault transitions recorded")
	}
	for _, v := range []struct {
		sched  string
		lambda float64
	}{{"C2PL", 0.6}, {"ASL", 0.2}, {"NODC", 1.0}} {
		if got := schedule(v.sched, v.lambda); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s at λ=%g saw a different fault schedule than LOW at λ=0.6:\n got %v\nwant %v",
				v.sched, v.lambda, got, ref)
		}
	}
}

// faultTransition is one machine-level fault event, as seen by an observer.
type faultTransition struct {
	kind string
	node int
	at   sim.Time
}

// faultObs records the fault transitions of the event stream.
type faultObs struct {
	transitions []faultTransition
}

func (o *faultObs) Event(ev engine.Event) {
	// Loss is per-message and so necessarily workload-dependent.
	if ev.Kind == engine.EvFault && ev.Fault != "msgloss" {
		o.transitions = append(o.transitions, faultTransition{ev.Fault, ev.Node, ev.At})
	}
}

// TestStragglerStretchesServiceTime: the same burst takes strictly longer
// through a machine whose single node keeps entering 5x-slow windows.
func TestStragglerStretchesServiceTime(t *testing.T) {
	run := func(withStraggler bool) (sim.Time, int, sim.Time) {
		cfg := faultyConfig()
		if withStraggler {
			cfg.Faults = fault.Config{StragglerMTBF: 30 * sim.Second, StragglerDuration: 20 * sim.Second, StragglerFactor: 5}
		}
		m := newMachine(t, cfg, "LOW")
		for i := 0; i < 10; i++ {
			m.Submit(steps("w(A:5)", map[string]model.FileID{"A": 0}))
		}
		sum := m.Run()
		if sum.Completions != 10 {
			t.Fatalf("completions = %d, want 10", sum.Completions)
		}
		return sum.MeanRT, sum.StragglerEpisodes, sum.DegradedTime
	}
	clean, _, _ := run(false)
	slow, episodes, degraded := run(true)
	if episodes == 0 || degraded <= 0 {
		t.Fatalf("episodes = %d, degraded = %v: straggler process not running", episodes, degraded)
	}
	if slow <= clean {
		t.Errorf("mean RT with stragglers %v must exceed the clean run's %v", slow, clean)
	}
}

// TestMsgLossRetriesThenAborts: with a zero retry budget every lost dispatch
// costs the transaction; with a generous budget retries absorb the losses and
// everything commits.
func TestMsgLossRetriesThenAborts(t *testing.T) {
	run := func(retries int) Summary2 {
		cfg := faultyConfig()
		cfg.Faults = fault.Config{MsgLoss: 0.4, MsgTimeout: 2 * sim.Second, MsgRetries: retries}
		m := newMachine(t, cfg, "LOW")
		for i := 0; i < 12; i++ {
			m.Submit(steps("w(A:2)", map[string]model.FileID{"A": 0}))
		}
		sum := m.Run()
		return Summary2{sum.Completions, sum.MsgLost, sum.MsgRetries, sum.MsgAborts}
	}
	strict := run(0)
	if strict.lost == 0 {
		t.Fatal("no messages lost at p=0.4 — loss draw not wired")
	}
	if strict.aborts == 0 || strict.retries != 0 {
		t.Errorf("retries=0 run: aborts = %d (want > 0), retries = %d (want 0)", strict.aborts, strict.retries)
	}
	lax := run(10)
	if lax.retries == 0 {
		t.Error("retry budget 10 never retried despite p=0.4 loss")
	}
	if lax.aborts != 0 || lax.completions != 12 {
		t.Errorf("retry budget 10: aborts = %d, completions = %d, want 0 and 12", lax.aborts, lax.completions)
	}
}

// Summary2 is the slice of Summary the message-loss test compares.
type Summary2 struct {
	completions, lost, retries, aborts int
}

// TestFaultRunIsDeterministic: identical seed and fault config must produce a
// byte-identical execution trace and a deeply equal summary across runs.
func TestFaultRunIsDeterministic(t *testing.T) {
	run := func() (interface{}, *bytes.Buffer) {
		cfg := DefaultConfig()
		cfg.ArrivalRate = 0.6
		cfg.Duration = 300_000 * sim.Millisecond
		cfg.RestartDelay = 2 * sim.Second
		cfg.Faults = fault.Config{
			MTBF: 80 * sim.Second, MTTR: 5 * sim.Second,
			StragglerMTBF: 150 * sim.Second, StragglerDuration: 10 * sim.Second, StragglerFactor: 3,
			MsgLoss: 0.03, MsgTimeout: 5 * sim.Second, MsgRetries: 2,
		}
		m, err := New(cfg, sched.MustNew("LOW", sched.DefaultParams()), workload.NewExp1(cfg.NumFiles), sim.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tw := trace.NewWriter(&buf)
		m.SetObserver(tw)
		sum := m.Run()
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		return sum, &buf
	}
	a, ta := run()
	b, tb := run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("summaries differ across identical runs:\n%+v\n%+v", a, b)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Error("traces differ across identical fault runs — fault schedule is not seed-deterministic")
	}
	if !bytes.Contains(ta.Bytes(), []byte(`"fault"`)) || !bytes.Contains(ta.Bytes(), []byte(`"abort"`)) {
		t.Error("trace of a faulty run must contain fault and abort events")
	}
}

// TestZeroFaultsSkipInjector: the zero fault config must not even build an
// injector, guaranteeing the failure-free event sequence (and RNG stream
// usage) is untouched.
func TestZeroFaultsSkipInjector(t *testing.T) {
	m := newMachine(t, quietConfig(1), "LOW")
	if m.inj != nil {
		t.Fatal("injector built despite zero fault config")
	}
	cfg := quietConfig(1)
	cfg.Faults = fault.Config{MTBF: 50 * sim.Second, MTTR: 5 * sim.Second}
	m2 := newMachine(t, cfg, "LOW")
	if m2.inj == nil {
		t.Fatal("injector missing despite MTBF set")
	}
}
