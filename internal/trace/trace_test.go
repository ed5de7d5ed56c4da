package trace

import (
	"bytes"
	"strings"
	"testing"

	"batchsched/internal/engine"
	"batchsched/internal/machine"
	"batchsched/internal/model"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// ev builds the control-node event of kind k for txn at time at.
func ev(k engine.EventKind, txn *model.Txn, at sim.Time) engine.Event {
	return engine.Event{Kind: k, At: at, Txn: txn}
}

func stepEv(txn *model.Txn, step int, at sim.Time) engine.Event {
	e := ev(engine.EvStepDone, txn, at)
	e.Step = step
	return e
}

func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	txn := model.NewTxn(7, 0, []model.Step{
		{File: 3, Write: false, LockMode: model.S, Cost: 1, DeclaredCost: 1},
		{File: 4, Write: true, LockMode: model.X, Cost: 2, DeclaredCost: 2},
	})
	w.Event(stepEv(txn, 0, 1500*sim.Millisecond))
	w.Event(ev(engine.EvAbort, txn, 2000*sim.Millisecond))
	txn.Restarts = 1
	w.Event(ev(engine.EvArrive, txn, 2500*sim.Millisecond)) // leaves no record
	w.Event(stepEv(txn, 1, 5000*sim.Millisecond))
	w.Event(ev(engine.EvCommit, txn, 5100*sim.Millisecond))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != 4 {
		t.Fatalf("events = %d, want 4", w.Events())
	}

	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("read %d events", len(events))
	}
	if events[0].Kind != "step" || events[0].FileID() != 3 || events[0].Write {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Kind != "restart" || events[1].Txn != 7 {
		t.Errorf("event 1 = %+v", events[1])
	}
	if events[2].Kind != "step" || !events[2].Write || events[2].StepIndex() != 1 {
		t.Errorf("event 2 = %+v", events[2])
	}
	if events[3].Kind != "commit" || events[3].RTms != 5100 || events[3].Restarts != 1 {
		t.Errorf("event 3 = %+v", events[3])
	}
}

// TestZeroValuesRoundTrip: step index 0 on file 0 must survive the JSON
// round trip — with omitempty on plain ints both were silently dropped and
// read back as garbage.
func TestZeroValuesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	txn := model.NewTxn(1, 0, []model.Step{
		{File: 0, Write: true, LockMode: model.X, Cost: 1, DeclaredCost: 1},
	})
	w.Event(stepEv(txn, 0, 100*sim.Millisecond))
	w.Event(engine.Event{Kind: engine.EvFault, At: 200 * sim.Millisecond, Node: 0, Fault: "crash"})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events, want 2", len(events))
	}
	step := events[0]
	if step.Step == nil || *step.Step != 0 {
		t.Errorf("step index 0 lost in round trip: %+v", step)
	}
	if step.File == nil || *step.File != 0 {
		t.Errorf("file 0 lost in round trip: %+v", step)
	}
	fault := events[1]
	if fault.Kind != "fault" || fault.Fault != "crash" || fault.Node == nil || *fault.Node != 0 {
		t.Errorf("fault on node 0 lost in round trip: %+v", fault)
	}
	// Absent fields stay distinguishable from zero values.
	if fault.StepIndex() != -1 || fault.FileID() != -1 || step.Node != nil {
		t.Errorf("absent pointer fields must read back as nil")
	}
}

// TestFaultEventsRoundTrip covers the fault/abort/retry kinds end to end: a
// fault abort writes its restart record, then its abort record.
func TestFaultEventsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	txn := model.NewTxn(9, 0, []model.Step{
		{File: 2, Write: true, LockMode: model.X, Cost: 1, DeclaredCost: 1},
	})
	w.Event(engine.Event{Kind: engine.EvFault, At: 10 * sim.Millisecond, Node: 5, Fault: "slow"})
	retry := ev(engine.EvRetry, txn, 20*sim.Millisecond)
	retry.Attempt = 1
	w.Event(retry)
	txn.Restarts = 1
	abort := ev(engine.EvAbort, txn, 30*sim.Millisecond)
	abort.Reason = "timeout"
	w.Event(abort)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("read %d events, want 4", len(events))
	}
	if events[0].Kind != "fault" || events[0].Fault != "slow" || events[0].Node == nil || *events[0].Node != 5 {
		t.Errorf("fault event = %+v", events[0])
	}
	if events[1].Kind != "retry" || events[1].Txn != 9 || events[1].Attempt != 1 {
		t.Errorf("retry event = %+v", events[1])
	}
	if events[2].Kind != "restart" || events[2].Txn != 9 || events[2].Restarts != 1 {
		t.Errorf("restart event = %+v", events[2])
	}
	if events[3].Kind != "abort" || events[3].Reason != "timeout" || events[3].Restarts != 1 {
		t.Errorf("abort event = %+v", events[3])
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{\"kind\":\"step\"}\nnot json\n")); err == nil {
		t.Fatal("garbage line must error")
	}
}

func TestTraceFromRealRun(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.ArrivalRate = 0.3
	cfg.Duration = 100_000 * sim.Millisecond
	m, err := machine.New(cfg, sched.MustNew("LOW", sched.DefaultParams()), workload.NewExp1(16), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m.SetObserver(w)
	sum := m.Run()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	commits, steps := 0, 0
	for _, e := range events {
		switch e.Kind {
		case "commit":
			commits++
		case "step":
			steps++
		}
	}
	if commits != sum.Completions {
		t.Errorf("trace commits = %d, summary completions = %d", commits, sum.Completions)
	}
	if steps != sum.StepsExecuted {
		t.Errorf("trace steps = %d, summary steps = %d", steps, sum.StepsExecuted)
	}
	// Events are time-ordered.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
	}
}
