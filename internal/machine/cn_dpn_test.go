package machine

import (
	"fmt"
	"testing"

	"batchsched/internal/engine"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// costSched grants every request and charges per-transaction CPU: admission
// tests cost admitCPU[t.ID] and lock requests reqCPU[t.ID] (0 when absent).
// It logs each admission and request with the virtual time it ran at — the
// moment its CN job started service.
type costSched struct {
	eng      *sim.Engine
	admitCPU map[int64]sim.Time
	reqCPU   map[int64]sim.Time
	log      []string
}

func (s *costSched) Name() string { return "cost" }

func (s *costSched) Admit(t *model.Txn) (bool, sim.Time) {
	s.log = append(s.log, fmt.Sprintf("admit T%d @%gms", t.ID, s.eng.Now().Milliseconds()))
	return true, s.admitCPU[t.ID]
}

func (s *costSched) Request(t *model.Txn) sched.Outcome {
	s.log = append(s.log, fmt.Sprintf("request T%d @%gms", t.ID, s.eng.Now().Milliseconds()))
	return sched.Outcome{Decision: sched.Grant, CPU: s.reqCPU[t.ID]}
}

func (s *costSched) Validate(*model.Txn) (bool, sim.Time) { return true, 0 }
func (s *costSched) Committed(*model.Txn)                 {}
func (s *costSched) Aborted(*model.Txn)                   {}

// stepTimes records when each transaction's steps completed.
type stepTimes map[int64]sim.Time

func (st stepTimes) Event(ev engine.Event) {
	if ev.Kind == engine.EvStepDone {
		st[ev.Txn.ID] = ev.At
	}
}

// cnMachine is a machine whose only CN CPU is the scheduler's: message,
// startup and commit costs are zero, and one object takes 100 ms.
func cnMachine(t *testing.T, s *costSched) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ArrivalRate = 0
	cfg.MsgTime, cfg.SOTTime, cfg.COTTime = 0, 0, 0
	cfg.ObjTime = 100 * sim.Millisecond
	cfg.Duration = 100 * sim.Second
	m, err := New(cfg, s, nil, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	s.eng = m.eng
	return m
}

func oneStep(f model.FileID) []model.Step {
	return []model.Step{{File: f, LockMode: model.X, Cost: 1, DeclaredCost: 1}}
}

// TestControlNodeFIFOAndBusyTime: the CN is one FCFS server. A job body runs
// when its service starts, so T2's admission test waits out T1's 10 ms, and
// T1's request — queued by T1's continuation at 10 ms — waits out T2's 5 ms.
// The CPU is busy the whole 15 ms.
func TestControlNodeFIFOAndBusyTime(t *testing.T) {
	s := &costSched{admitCPU: map[int64]sim.Time{1: 10 * sim.Millisecond, 2: 5 * sim.Millisecond}}
	m := cnMachine(t, s)
	m.Submit(oneStep(0))
	m.Submit(oneStep(1))
	m.RunClosed(m.cfg.Duration)
	want := "[admit T1 @0ms admit T2 @10ms request T1 @15ms request T2 @15ms]"
	if got := fmt.Sprint(s.log); got != want {
		t.Fatalf("scheduler calls = %s, want %s", got, want)
	}
	if u := m.met.Summarize(15 * sim.Millisecond).CNUtilization; u != 1.0 {
		t.Errorf("CN utilization = %v, want 1.0", u)
	}
}

// TestControlNodeZeroCostJobs: thousands of zero-CPU jobs all run without
// advancing the clock.
func TestControlNodeZeroCostJobs(t *testing.T) {
	s := &costSched{}
	m := cnMachine(t, s)
	const n = 1000
	for i := 0; i < n; i++ {
		m.Submit(oneStep(model.FileID(i % 16)))
	}
	for m.eng.Step(0) {
	}
	if len(s.log) != 2*n {
		t.Fatalf("ran %d scheduler calls, want %d", len(s.log), 2*n)
	}
	if m.eng.Now() != 0 {
		t.Errorf("zero-cost jobs advanced the clock to %v", m.eng.Now())
	}
}

// TestControlNodeJobsSubmittedDuringService: a continuation that submits a
// job starts it right after its own CPU time, and that job's continuation
// runs after the new job's CPU: T1 is admitted by 4 ms, its request costs
// 6 ms, so its step is dispatched at 10 ms and its 100 ms scan ends at 110.
func TestControlNodeJobsSubmittedDuringService(t *testing.T) {
	s := &costSched{
		admitCPU: map[int64]sim.Time{1: 4 * sim.Millisecond},
		reqCPU:   map[int64]sim.Time{1: 6 * sim.Millisecond},
	}
	m := cnMachine(t, s)
	done := stepTimes{}
	m.SetObserver(done)
	m.Submit(oneStep(0))
	m.RunClosed(m.cfg.Duration)
	if got := fmt.Sprint(s.log); got != "[admit T1 @0ms request T1 @4ms]" {
		t.Errorf("scheduler calls = %s", got)
	}
	if done[1] != 110*sim.Millisecond {
		t.Errorf("step done at %v, want 110ms", done[1])
	}
}

func TestControlNodePanicsOnNegativeCPU(t *testing.T) {
	m := cnMachine(t, &costSched{admitCPU: map[int64]sim.Time{1: -1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Submit(oneStep(0))
}

func TestDPNSingleCohort(t *testing.T) {
	eng := sim.NewEngine()
	met := metrics.NewCollector(1, 0)
	d := newDPN(0, eng, met)
	var finished sim.Time
	d.add(&cohort{remaining: 2500 * sim.Millisecond, quantum: sim.Second,
		done: func() { finished = eng.Now() }})
	eng.Run(10 * sim.Second)
	if finished != 2500*sim.Millisecond {
		t.Errorf("finished at %v, want 2.5s", finished)
	}
	s := met.Summarize(2500 * sim.Millisecond)
	if s.PerDPNUtilization[0] != 1.0 {
		t.Errorf("utilization = %v, want 1.0", s.PerDPNUtilization[0])
	}
}

func TestDPNRoundRobinInterleaving(t *testing.T) {
	eng := sim.NewEngine()
	d := newDPN(0, eng, metrics.NewCollector(1, 0))
	var doneA, doneB sim.Time
	// A needs 2 quanta, B needs 1: service order A B A -> A at 3s, B at 2s.
	d.add(&cohort{remaining: 2 * sim.Second, quantum: sim.Second, done: func() { doneA = eng.Now() }})
	d.add(&cohort{remaining: 1 * sim.Second, quantum: sim.Second, done: func() { doneB = eng.Now() }})
	eng.Run(10 * sim.Second)
	if doneB != 2*sim.Second {
		t.Errorf("B done at %v, want 2s (after A's first quantum)", doneB)
	}
	if doneA != 3*sim.Second {
		t.Errorf("A done at %v, want 3s", doneA)
	}
}

func TestDPNLateArrivalJoinsRotation(t *testing.T) {
	eng := sim.NewEngine()
	d := newDPN(0, eng, metrics.NewCollector(1, 0))
	var doneA, doneB sim.Time
	d.add(&cohort{remaining: 3 * sim.Second, quantum: sim.Second, done: func() { doneA = eng.Now() }})
	eng.Schedule(1500*sim.Millisecond, func(sim.Time) {
		d.add(&cohort{remaining: 1 * sim.Second, quantum: sim.Second, done: func() { doneB = eng.Now() }})
	})
	eng.Run(20 * sim.Second)
	// A runs [0,2) alone (B arrives mid-quantum at 1.5s and waits for the
	// boundary), then A and B alternate: B [2,3), A [3,4) -> A at 4s, B 3s.
	if doneB != 3*sim.Second {
		t.Errorf("B done at %v, want 3s", doneB)
	}
	if doneA != 4*sim.Second {
		t.Errorf("A done at %v, want 4s", doneA)
	}
}

func TestDPNZeroWorkCohort(t *testing.T) {
	eng := sim.NewEngine()
	d := newDPN(0, eng, metrics.NewCollector(1, 0))
	ran := false
	d.add(&cohort{remaining: 0, quantum: sim.Second, done: func() { ran = true }})
	eng.Run(sim.Second)
	if !ran {
		t.Fatal("zero-work cohort never completed")
	}
	if eng.Now() != 0 {
		t.Errorf("zero-work cohort advanced the clock to %v", eng.Now())
	}
}

func TestDPNPanicsOnZeroQuantum(t *testing.T) {
	eng := sim.NewEngine()
	d := newDPN(0, eng, metrics.NewCollector(1, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.add(&cohort{remaining: sim.Second, quantum: 0})
}

func TestDPNManyCohortsFairness(t *testing.T) {
	eng := sim.NewEngine()
	d := newDPN(0, eng, metrics.NewCollector(1, 0))
	const n = 10
	finish := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		d.add(&cohort{remaining: 2 * sim.Second, quantum: sim.Second,
			done: func() { finish[i] = eng.Now() }})
	}
	eng.Run(100 * sim.Second)
	// All equal cohorts finish within one round of each other, in order.
	for i := 1; i < n; i++ {
		if finish[i] <= finish[i-1] {
			t.Errorf("finish order violated: %v", finish)
			break
		}
	}
	if finish[0] != 11*sim.Second || finish[n-1] != 20*sim.Second {
		t.Errorf("finish = %v, want 11s..20s", finish)
	}
}
