package live_test

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"batchsched/internal/admit"
	"batchsched/internal/engine/live"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// svcLiveConfig is a short wall-clock service run: paced objects so service
// time dominates, a small window and queue so backpressure is reachable
// within the test's ~1.5 s.
func svcLiveConfig(duration time.Duration) live.Config {
	cfg := live.DefaultConfig()
	cfg.NumNodes = 4
	cfg.NumFiles = 8
	cfg.RowsPerObject = 32
	cfg.PacePerObject = 20 * time.Millisecond // Pattern1 ≈ 7.2 objects ≈ 145 ms/txn
	cfg.Deadline = 20 * time.Second
	cfg.RestartDelay = 2 * time.Millisecond
	cfg.RestartJitter = true
	cfg.ServiceDuration = duration
	pol := admit.DefaultPolicy()
	pol.MPL = 4
	pol.Epoch = 50 * sim.Millisecond
	pol.MaxQueue = 16
	pol.QueueSLO = [admit.NumClasses]sim.Time{
		admit.Batch:       2 * sim.Second,
		admit.Interactive: 500 * sim.Millisecond,
	}
	pol.OverloadP95 = 1 * sim.Second
	pol.SojournWindow = 64
	cfg.Service = &pol
	return cfg
}

func TestLiveServiceConfigValidate(t *testing.T) {
	good := svcLiveConfig(time.Second)
	if err := good.Validate(); err != nil {
		t.Fatalf("service config invalid: %v", err)
	}
	bad := []func(*live.Config){
		func(c *live.Config) { c.MPL = 4 },
		func(c *live.Config) { c.ServiceDuration = 0 },
		func(c *live.Config) { p := *c.Service; p.MPL = 0; c.Service = &p },
	}
	for i, mutate := range bad {
		cfg := svcLiveConfig(time.Second)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad service config %d validated", i)
		}
	}
}

// TestLiveServiceOverload floods the backend far above capacity: shedding
// must activate, the queue must stay bounded, the run must terminate
// cleanly (no goroutine leak), and the books must balance. Run under -race
// in CI, this is also the service-mode data-race check.
func TestLiveServiceOverload(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := svcLiveConfig(1200 * time.Millisecond)
	b, err := live.New(cfg, sched.MustNew("GOW", sched.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewMetricsOnly()
	b.SetObs(o)
	var epochs []admit.EpochStats
	b.SetEpochHook(func(es admit.EpochStats) { epochs = append(epochs, es) })

	// Capacity at MPL 4 with ~145 ms/txn of paced work is ~25/s; offer 400/s.
	sum := b.RunService(workload.NewExp1(cfg.NumFiles), workload.Poisson{Rate: 400}, 11)
	if b.Err() != nil {
		t.Fatalf("service run stalled: %v", b.Err())
	}
	st := b.Service().Stats()
	if st.Arrivals == 0 || sum.Completions == 0 {
		t.Fatalf("no traffic: arrivals=%d completions=%d", st.Arrivals, sum.Completions)
	}
	if st.TotalShed() == 0 {
		t.Fatal("overload shed nothing")
	}
	if st.DepthHighWater > cfg.Service.MaxQueue {
		t.Fatalf("queue exceeded bound: %d > %d", st.DepthHighWater, cfg.Service.MaxQueue)
	}
	if len(epochs) == 0 {
		t.Fatal("no epochs emitted")
	}
	for _, es := range epochs {
		if es.Active > cfg.Service.MPL {
			t.Fatalf("epoch %d active %d over window %d", es.Epoch, es.Active, cfg.Service.MPL)
		}
	}
	// Books: every arrival was shed or admitted (the queue is empty after
	// the drain) and every admission completed or was evicted.
	if st.Arrivals != st.TotalShed()+st.TotalAdmitted() {
		t.Fatalf("arrival books: arrivals=%d shed=%d admitted=%d", st.Arrivals, st.TotalShed(), st.TotalAdmitted())
	}
	if st.TotalAdmitted() != sum.Completions+st.Evictions {
		t.Fatalf("admission books: admitted=%d completions=%d evictions=%d",
			st.TotalAdmitted(), sum.Completions, st.Evictions)
	}
	if sum.Sheds != st.TotalShed() {
		t.Fatalf("collector sheds %d != service %d", sum.Sheds, st.TotalShed())
	}
	if b.Violations() != 0 {
		t.Fatalf("data-guard violations: %d", b.Violations())
	}

	// The registry saw the traffic.
	var prom strings.Builder
	if err := o.Metrics().WritePrometheus(&prom, b.Now()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, metric := range []string{
		`sheds_total{backend="live"} ` + strconv.Itoa(st.TotalShed()),
		`admit_queue_depth{backend="live"}`, `commits_total{backend="live"}`,
	} {
		if !strings.Contains(prom.String(), metric) {
			t.Fatalf("exposition missing %s:\n%s", metric, prom.String())
		}
	}

	// Clean termination: every DPN worker and all restart timers have
	// exited.
	deadlineG := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadlineG) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, g)
	}
}

// TestLiveServiceSustainable: below capacity, nearly everything admits and
// completes, and the run drains without shedding pressure.
func TestLiveServiceSustainable(t *testing.T) {
	cfg := svcLiveConfig(1 * time.Second)
	b, err := live.New(cfg, sched.MustNew("C2PL", sched.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	sum := b.RunService(workload.NewExp1(cfg.NumFiles), workload.Poisson{Rate: 5}, 23)
	if b.Err() != nil {
		t.Fatalf("service run stalled: %v", b.Err())
	}
	st := b.Service().Stats()
	if sum.Completions == 0 {
		t.Fatal("no completions")
	}
	// Drain sheds at shutdown are fine; overload/queue-full sheds are not.
	if st.Shed[admit.ShedOverload] != 0 || st.Shed[admit.ShedQueueFull] != 0 {
		t.Fatalf("backpressure fired below capacity: %+v", st.Shed)
	}
}

// TestLiveServiceStuckFailsFast: a service run that can no longer progress
// once its arrivals close (every admitted transaction policy-delayed,
// nothing in flight, no eviction possible) returns at once with the control
// node's stuck error, the one a stuck batch reports on either backend,
// instead of waiting out Deadline.
func TestLiveServiceStuckFailsFast(t *testing.T) {
	cfg := svcLiveConfig(300 * time.Millisecond)
	cfg.Deadline = 20 * time.Second
	pol := *cfg.Service
	pol.MPL = 5
	pol.InteractiveFraction = 0 // one class: the window fills in arrival order
	cfg.Service = &pol
	b, err := live.New(cfg, delayAll{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sum := b.RunService(workload.NewExp1(cfg.NumFiles), workload.Poisson{Rate: 1000}, 3)
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("stuck service run took %v to fail", el)
	}
	if sum.Completions != 0 {
		t.Fatalf("completions = %d, want 0", sum.Completions)
	}
	if b.Err() == nil {
		t.Fatal("no error for a service run that cannot finish")
	}
	msg := b.Err().Error()
	if !strings.HasPrefix(msg, "run stuck with 0 committed and 5 waiting") {
		t.Errorf("error %q is not the control node's stuck error", msg)
	}
	for i := 1; i <= pol.MPL; i++ {
		if want := "T" + strconv.Itoa(i) + " delayed at step 0"; !strings.Contains(msg, want) {
			t.Errorf("error %q lacks %q", msg, want)
		}
	}
}
