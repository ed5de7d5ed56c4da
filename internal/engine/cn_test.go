package engine_test

import (
	"strings"
	"testing"

	"batchsched/internal/admit"
	"batchsched/internal/engine"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// delaySched admits everything and delays every lock request.
type delaySched struct{}

func (delaySched) Name() string                         { return "delay" }
func (delaySched) Admit(*model.Txn) (bool, sim.Time)    { return true, 0 }
func (delaySched) Validate(*model.Txn) (bool, sim.Time) { return true, 0 }
func (delaySched) Committed(*model.Txn)                 {}
func (delaySched) Aborted(*model.Txn)                   {}
func (delaySched) Request(*model.Txn) sched.Outcome {
	return sched.Outcome{Decision: sched.Delay}
}

// calendarHost is a minimal simulator host: CN CPU is served on a sim
// calendar, and dispatched steps never return.
type calendarHost struct {
	eng *sim.Engine
	met *metrics.Collector
	cn  *engine.CN
	cpu sim.Time
}

func (h *calendarHost) Now() sim.Time { return h.eng.Now() }

func (h *calendarHost) Charge(cpu sim.Time) {
	h.cpu = cpu
	h.eng.Schedule(cpu, func(sim.Time) {
		h.met.CNBusy(h.cpu)
		h.cn.JobDone()
	})
}

func (h *calendarHost) ChargesCPU() bool { return true }

func (h *calendarHost) Dispatch(*engine.Exec, int) {}

func (h *calendarHost) RestartAfter(e *engine.Exec, d sim.Time) {
	h.eng.Schedule(d, func(sim.Time) { h.cn.Readmit(e) })
}

func newCalendarHost() *calendarHost {
	h := &calendarHost{eng: sim.NewEngine(), met: metrics.NewCollector(0, 0)}
	h.cn = engine.NewCN(engine.CNConfig{}, h, delaySched{}, h.met, sim.NewRNG(1))
	return h
}

var oneStep = []model.Step{{File: 0, LockMode: model.X, Cost: 1, DeclaredCost: 1}}

// TestCNQuiescentWaitReport: a scheduler that delays every request leaves
// the batch waiting with nothing queued; the CN reports it quiescent and
// names every waiter.
func TestCNQuiescentWaitReport(t *testing.T) {
	h := newCalendarHost()
	for i := 1; i <= 3; i++ {
		h.cn.Arrive(model.NewTxn(int64(i), 0, oneStep), 0)
		if h.cn.Quiescent(i) {
			t.Fatal("quiescent while admissions are queued")
		}
	}
	h.eng.Run(sim.Second)
	if !h.cn.Quiescent(3) {
		t.Fatalf("not quiescent: %d waiting", h.cn.Waiting())
	}
	if h.cn.Quiescent(4) {
		t.Error("quiescent although one transaction is unaccounted for")
	}
	rep := h.cn.WaitReport()
	for _, want := range []string{"T1 delayed at step 0 on X(f0)", "T3 delayed", "parked:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report %q lacks %q", rep, want)
		}
	}
}

// TestServiceEpochEvictsSmallestWaiter drives the core's service mode with
// every request delayed: the full queue sheds the surplus arrivals, the
// first epoch fills the two-slot window, and since the overload persists
// the second epoch evicts the smallest-id waiter and refills its slot.
func TestServiceEpochEvictsSmallestWaiter(t *testing.T) {
	h := newCalendarHost()
	svc, err := admit.NewService(admit.Policy{MPL: 2, Epoch: sim.Second, MaxQueue: 4, EvictOnOverload: true})
	if err != nil {
		t.Fatal(err)
	}
	h.cn.EnableService(svc)
	var epochs []admit.EpochStats
	h.cn.SetEpochHook(func(es admit.EpochStats) { epochs = append(epochs, es) })
	for i := 1; i <= 6; i++ {
		h.cn.Arrive(model.NewTxn(int64(i), 0, oneStep), admit.Batch)
	}
	if st := svc.Stats(); st.Shed[admit.ShedQueueFull] != 2 {
		t.Fatalf("queue-full sheds = %d, want 2", st.Shed[admit.ShedQueueFull])
	}
	for epoch := 1; epoch <= 2; epoch++ {
		h.cn.Epoch(h.eng.Now())
		h.eng.Run(sim.Time(epoch) * sim.Second)
	}
	if len(epochs) != 2 || epochs[0].Admitted != 2 || epochs[1].Evictions != 1 || epochs[1].Admitted != 1 {
		t.Fatalf("epochs = %+v, want 2 admitted, then 1 eviction and 1 admission", epochs)
	}
	if h.cn.Active() != 2 {
		t.Errorf("active = %d, want 2", h.cn.Active())
	}
	rep := h.cn.WaitReport()
	if strings.Contains(rep, "T1 ") || !strings.Contains(rep, "T2 delayed") || !strings.Contains(rep, "T3 delayed") {
		t.Errorf("waiters after evicting T1: %s", rep)
	}
}

// TestServiceEpochAllocFree: once the sojourn window holds samples, an
// epoch boundary (expiry, overload check, refill, digest) allocates nothing.
func TestServiceEpochAllocFree(t *testing.T) {
	h := newCalendarHost()
	pol := admit.DefaultPolicy()
	svc, err := admit.NewService(pol)
	if err != nil {
		t.Fatal(err)
	}
	h.cn.EnableService(svc)
	for i := 1; i <= 200; i++ {
		h.cn.Arrive(model.NewTxn(int64(i), 0, oneStep), admit.Batch)
	}
	epoch := func() {
		now := h.eng.Now() + pol.Epoch
		h.eng.Run(now)
		h.cn.Epoch(now)
	}
	for i := 0; i < 4; i++ {
		epoch()
	}
	if svc.P95Sojourn() <= 0 {
		t.Fatalf("p95 sojourn = %v after four epochs, want > 0", svc.P95Sojourn())
	}
	if avg := testing.AllocsPerRun(100, epoch); avg != 0 {
		t.Fatalf("%.1f allocs per epoch, want 0", avg)
	}
}

// drainHost is a live-style host: Charge returns at once and the test
// drains the CN queue itself; Now counts its reads, and dispatched steps
// wait in a list until the test returns them.
type drainHost struct {
	cn      *engine.CN
	reads   int
	pending []*engine.Exec
}

func (h *drainHost) Now() sim.Time                       { h.reads++; return 0 }
func (h *drainHost) Charge(sim.Time)                     {}
func (h *drainHost) ChargesCPU() bool                    { return false }
func (h *drainHost) Dispatch(e *engine.Exec, _ int)      { h.pending = append(h.pending, e) }
func (h *drainHost) RestartAfter(*engine.Exec, sim.Time) {}

// TestCNJobsReadNoClock: with observability off, the control node reads
// the host clock only where the protocol stamps a time — once per arrival
// and once per commit — and never per job. Every transaction X-locks the
// same file under ASL, so each commit re-runs the admission test for every
// parked transaction: n(n-1)/2 refused retries.
func TestCNJobsReadNoClock(t *testing.T) {
	const n = 32
	h := &drainHost{}
	met := metrics.NewCollector(0, 0)
	h.cn = engine.NewCN(engine.CNConfig{}, h, sched.NewASL(), met, sim.NewRNG(1))
	for i := 1; i <= n; i++ {
		h.cn.Arrive(model.NewTxn(int64(i), 0, oneStep), 0)
	}
	h.cn.Drain()
	for len(h.pending) > 0 {
		e := h.pending[0]
		h.pending = h.pending[1:]
		h.cn.StepReturned(e)
		h.cn.Drain()
	}
	if h.cn.Completed() != n {
		t.Fatalf("committed %d of %d", h.cn.Completed(), n)
	}
	if got := met.Summarize(0).AdmissionRejects; got != n*(n-1)/2 {
		t.Fatalf("%d refused admissions, want %d", got, n*(n-1)/2)
	}
	if h.reads != 2*n {
		t.Fatalf("%d clock reads for %d arrivals and %d commits, want %d", h.reads, n, n, 2*n)
	}
}
