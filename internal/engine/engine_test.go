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

// TestDecisionLogRecords drives a wrapped scheduler through the protocol
// and checks every call lands in the log, in order, with the right shape.
func TestDecisionLogRecords(t *testing.T) {
	dl := engine.NewDecisionLog(sched.MustNew("C2PL", sched.DefaultParams()))
	t1 := model.NewTxn(1, 0, []model.Step{step(0, model.X), step(1, model.S)})
	t2 := model.NewTxn(2, 0, []model.Step{step(0, model.S)})

	if ok, _ := dl.Admit(t1); !ok {
		t.Fatal("admit T1 rejected")
	}
	if out := dl.Request(t1); out.Decision != sched.Grant {
		t.Fatalf("T1 request: %v", out.Decision)
	}
	if ok, _ := dl.Admit(t2); !ok {
		t.Fatal("admit T2 rejected")
	}
	if out := dl.Request(t2); out.Decision != sched.Block {
		t.Fatalf("T2 request: %v (C2PL holds T1's X(f0) to commit)", out.Decision)
	}
	if ok, _ := dl.Validate(t1); !ok {
		t.Fatal("validate T1 failed")
	}
	dl.Committed(t1)
	dl.Aborted(t2)

	got := dl.Entries()
	want := []engine.DecisionEntry{
		{Op: engine.OpAdmit, Txn: 1, Step: 0, File: -1, Result: "ok"},
		{Op: engine.OpRequest, Txn: 1, Step: 0, File: 0, Mode: "X", Result: "grant"},
		{Op: engine.OpAdmit, Txn: 2, Step: 0, File: -1, Result: "ok"},
		{Op: engine.OpRequest, Txn: 2, Step: 0, File: 0, Mode: "S", Result: "block"},
		{Op: engine.OpValidate, Txn: 1, Step: 0, File: -1, Result: "ok"},
		{Op: engine.OpCommitted, Txn: 1, Step: 0, File: -1},
		{Op: engine.OpAborted, Txn: 2, Step: 0, File: -1},
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
	dl := engine.NewDecisionLog(sched.MustNew("GOW", sched.DefaultParams()))
	a := obs.New().Audit()
	dl.SetAudit(a)
	t1 := model.NewTxn(1, 0, []model.Step{step(0, model.X)})
	t2 := model.NewTxn(2, 0, []model.Step{step(0, model.X)})
	dl.Admit(t1)
	dl.Admit(t2)
	dl.Request(t1)
	dl.Request(t2) // conflict: GOW must decide an orientation and audit it
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
	adm := engine.DecisionEntry{Op: engine.OpAdmit, Txn: 1, File: -1, Result: "ok"}
	req0 := engine.DecisionEntry{Op: engine.OpRequest, Txn: 1, Step: 0, File: 0, Mode: "X", Result: "grant"}
	req1 := engine.DecisionEntry{Op: engine.OpRequest, Txn: 1, Step: 1, File: 1, Mode: "X", Result: "grant"}
	val := engine.DecisionEntry{Op: engine.OpValidate, Txn: 1, File: -1, Result: "ok"}
	com := engine.DecisionEntry{Op: engine.OpCommitted, Txn: 1, File: -1}
	abo := engine.DecisionEntry{Op: engine.OpAborted, Txn: 1, File: -1}

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
