package engine_test

import (
	"testing"

	"batchsched/internal/engine"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

func TestPlacementHome(t *testing.T) {
	p := engine.Placement{NumNodes: 4, DD: 1}
	cases := []struct {
		file model.FileID
		want int
	}{{0, 0}, {1, 1}, {4, 0}, {7, 3}, {-1, 3}, {-4, 0}}
	for _, c := range cases {
		if got := p.Home(c.file); got != c.want {
			t.Errorf("Home(%d) = %d, want %d", c.file, got, c.want)
		}
	}
}

func TestPlacementNodesWrap(t *testing.T) {
	p := engine.Placement{NumNodes: 4, DD: 3}
	got := p.NodesInto(3, nil) // home 3, wraps to 0, 1
	want := []int{3, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("NodesInto(3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodesInto(3) = %v, want %v", got, want)
		}
	}
}

func step(f model.FileID, m model.Mode) model.Step {
	return model.Step{File: f, LockMode: m, Write: m == model.X, Cost: 1, DeclaredCost: 1}
}

// protocol drives a scheduler through the calls the control node makes and
// publishes each call's event to an observer, as the CN does.
type protocol struct {
	s  sched.Scheduler
	to engine.Observer
}

func (p protocol) admit(t *model.Txn) bool {
	ok, _ := p.s.Admit(t)
	p.to.Event(engine.Event{Kind: engine.EvAdmit, Txn: t, OK: ok})
	return ok
}

func (p protocol) request(t *model.Txn) sched.Decision {
	out := p.s.Request(t)
	p.to.Event(engine.Event{Kind: engine.EvRequest, Txn: t, Decision: out.Decision, CPU: out.CPU})
	return out.Decision
}

func (p protocol) validate(t *model.Txn) bool {
	ok, _ := p.s.Validate(t)
	p.to.Event(engine.Event{Kind: engine.EvValidate, Txn: t, OK: ok})
	return ok
}

func (p protocol) committed(t *model.Txn) {
	p.s.Committed(t)
	p.to.Event(engine.Event{Kind: engine.EvCommit, Txn: t})
}

func (p protocol) aborted(t *model.Txn) {
	p.s.Aborted(t)
	p.to.Event(engine.Event{Kind: engine.EvAbort, Txn: t})
}

// TestDecisionLogRecords drives a scheduler through the protocol and checks
// every call's event lands in the log, in order, with the right shape, and
// that events reporting no scheduler call are skipped.
func TestDecisionLogRecords(t *testing.T) {
	dl := engine.NewDecisionLog(nil)
	p := protocol{sched.MustNew("C2PL", sched.DefaultParams()), dl}
	t1 := model.NewTxn(1, 0, []model.Step{step(0, model.X), step(1, model.S)})
	t2 := model.NewTxn(2, 0, []model.Step{step(0, model.S)})

	dl.Event(engine.Event{Kind: engine.EvArrive, Txn: t1})
	if !p.admit(t1) {
		t.Fatal("admit T1 rejected")
	}
	dl.Event(engine.Event{Kind: engine.EvJobStart, Txn: t1, Op: "cn:request"})
	if d := p.request(t1); d != sched.Grant {
		t.Fatalf("T1 request: %v", d)
	}
	dl.Event(engine.Event{Kind: engine.EvFault, Node: 0, Fault: "crash"})
	if !p.admit(t2) {
		t.Fatal("admit T2 rejected")
	}
	if d := p.request(t2); d != sched.Block {
		t.Fatalf("T2 request: %v (C2PL holds T1's X(f0) to commit)", d)
	}
	if !p.validate(t1) {
		t.Fatal("validate T1 failed")
	}
	p.committed(t1)
	p.aborted(t2)

	got := dl.Entries()
	want := []engine.DecisionEntry{
		{Op: engine.EvAdmit, Txn: 1, Step: 0, File: -1, Result: "ok"},
		{Op: engine.EvRequest, Txn: 1, Step: 0, File: 0, Mode: "X", Result: "grant"},
		{Op: engine.EvAdmit, Txn: 2, Step: 0, File: -1, Result: "ok"},
		{Op: engine.EvRequest, Txn: 2, Step: 0, File: 0, Mode: "S", Result: "block"},
		{Op: engine.EvValidate, Txn: 1, Step: 0, File: -1, Result: "ok"},
		{Op: engine.EvCommit, Txn: 1, Step: 0, File: -1},
		{Op: engine.EvAbort, Txn: 2, Step: 0, File: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("logged %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(dl.AuditMarks()) != len(got) {
		t.Fatalf("marks %d, entries %d", len(dl.AuditMarks()), len(got))
	}
}

// TestDecisionLogAuditMarks checks the marks align audit output with
// protocol calls for an audited scheduler (GOW emits orientation entries).
func TestDecisionLogAuditMarks(t *testing.T) {
	a := obs.New().Audit()
	gow := sched.MustNew("GOW", sched.DefaultParams())
	gow.(sched.Audited).SetAudit(a)
	dl := engine.NewDecisionLog(a)
	p := protocol{gow, dl}
	t1 := model.NewTxn(1, 0, []model.Step{step(0, model.X)})
	t2 := model.NewTxn(2, 0, []model.Step{step(0, model.X)})
	p.admit(t1)
	p.admit(t2)
	p.request(t1)
	p.request(t2) // conflict: GOW must decide an orientation and audit it
	marks := dl.AuditMarks()
	if len(marks) != 4 {
		t.Fatalf("marks = %v, want 4 entries", marks)
	}
	if marks[len(marks)-1] != len(a.Entries()) {
		t.Fatalf("last mark %d != audit length %d", marks[len(marks)-1], len(a.Entries()))
	}
	if len(a.Entries()) == 0 {
		t.Fatal("GOW conflict produced no audit entries")
	}
	for i := 1; i < len(marks); i++ {
		if marks[i] < marks[i-1] {
			t.Fatalf("marks not monotone: %v", marks)
		}
	}
}

func TestDeterministicPrefix(t *testing.T) {
	adm := engine.DecisionEntry{Op: engine.EvAdmit, Txn: 1, File: -1, Result: "ok"}
	req0 := engine.DecisionEntry{Op: engine.EvRequest, Txn: 1, Step: 0, File: 0, Mode: "X", Result: "grant"}
	req1 := engine.DecisionEntry{Op: engine.EvRequest, Txn: 1, Step: 1, File: 1, Mode: "X", Result: "grant"}
	val := engine.DecisionEntry{Op: engine.EvValidate, Txn: 1, File: -1, Result: "ok"}
	com := engine.DecisionEntry{Op: engine.EvCommit, Txn: 1, File: -1}
	abo := engine.DecisionEntry{Op: engine.EvAbort, Txn: 1, File: -1}

	cases := []struct {
		name    string
		entries []engine.DecisionEntry
		want    int
	}{
		{"empty", nil, 0},
		{"sweep only", []engine.DecisionEntry{adm, req0, adm, req0}, 4},
		{"cut at validate", []engine.DecisionEntry{adm, req0, val, com}, 2},
		{"cut at step>0 request", []engine.DecisionEntry{adm, req0, req1, val}, 2},
		{"cut at abort", []engine.DecisionEntry{adm, req0, abo, adm}, 2},
		{"cut at committed", []engine.DecisionEntry{adm, com}, 1},
	}
	for _, c := range cases {
		if got := engine.DeterministicPrefix(c.entries); got != c.want {
			t.Errorf("%s: DeterministicPrefix = %d, want %d", c.name, got, c.want)
		}
	}
}

// fakeBackendClock just pins that sim.Time flows through the Clock
// interface unchanged.
type fakeClock struct{ at sim.Time }

func (f fakeClock) Now() sim.Time { return f.at }

func TestClockInterface(t *testing.T) {
	var c engine.Clock = fakeClock{at: 42 * sim.Second}
	if c.Now() != 42*sim.Second {
		t.Fatal("clock did not round-trip")
	}
}
