package history

import (
	"testing"

	"batchsched/internal/engine"
	"batchsched/internal/model"
	"batchsched/internal/sim"
)

// stepDone, commit and restart publish the control node's step-completion,
// commit and rollback events to r.
func stepDone(r *Recorder, t *model.Txn, step int, at sim.Time) {
	r.Event(engine.Event{Kind: engine.EvStepDone, At: at, Txn: t, Step: step})
}

func commit(r *Recorder, t *model.Txn, at sim.Time) {
	r.Event(engine.Event{Kind: engine.EvCommit, At: at, Txn: t})
}

func restart(r *Recorder, t *model.Txn, at sim.Time) {
	r.Event(engine.Event{Kind: engine.EvAbort, At: at, Txn: t})
}

func rec(r *Recorder, id int64, pattern string, binding map[string]model.FileID, times []int) *model.Txn {
	p := model.MustParsePattern(pattern)
	steps, err := p.Instantiate(binding)
	if err != nil {
		panic(err)
	}
	t := model.NewTxn(id, 0, steps)
	for i := range steps {
		stepDone(r, t, i, msec(times[i]))
	}
	return t
}

func msec(ms int) sim.Time { return sim.Time(ms) * sim.Millisecond }

func TestSerialHistoryIsSerializable(t *testing.T) {
	r := New()
	files := map[string]model.FileID{"A": 0, "B": 1}
	t1 := rec(r, 1, "r(A:1)->w(B:1)", files, []int{10, 20})
	t2 := rec(r, 2, "w(A:1)->w(B:1)", files, []int{30, 40})
	commit(r, t1, msec(25))
	commit(r, t2, msec(45))
	if err := r.CheckSerializable(); err != nil {
		t.Fatalf("serial history flagged: %v", err)
	}
	if r.Commits() != 2 || len(r.committed) != 4 {
		t.Errorf("commits=%d ops=%d", r.Commits(), len(r.committed))
	}
}

func TestCycleDetected(t *testing.T) {
	r := New()
	files := map[string]model.FileID{"A": 0, "B": 1}
	// T1 writes A before T2 reads it (T1 -> T2), but T2 writes B before T1
	// reads it (T2 -> T1): a classic non-serializable interleaving.
	t1 := rec(r, 1, "w(A:1)->r(B:1)", files, []int{10, 40})
	t2 := rec(r, 2, "r(A:1)->w(B:1)", files, []int{20, 30})
	commit(r, t1, msec(50))
	commit(r, t2, msec(55))
	if err := r.CheckSerializable(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestReadsDoNotConflict(t *testing.T) {
	r := New()
	files := map[string]model.FileID{"A": 0}
	t1 := rec(r, 1, "r(A:1)", files, []int{10})
	t2 := rec(r, 2, "r(A:1)", files, []int{20})
	commit(r, t1, msec(30))
	commit(r, t2, msec(35))
	if err := r.CheckSerializable(); err != nil {
		t.Fatalf("read-only overlap flagged: %v", err)
	}
}

func TestRestartDiscardsAttempt(t *testing.T) {
	r := New()
	files := map[string]model.FileID{"A": 0, "B": 1}
	// T2's first attempt would form a cycle, but it restarts; its second
	// attempt is clean.
	t1 := rec(r, 1, "w(A:1)->r(B:1)", files, []int{10, 40})
	t2 := rec(r, 2, "r(A:1)->w(B:1)", files, []int{20, 30})
	restart(r, t2, msec(45)) // first attempt discarded
	commit(r, t1, msec(50))
	for i := range t2.Steps {
		stepDone(r, t2, i, msec(60+10*i))
	}
	commit(r, t2, msec(90))
	if err := r.CheckSerializable(); err != nil {
		t.Fatalf("restarted history flagged: %v", err)
	}
	if r.Restarts() != 1 {
		t.Errorf("restarts = %d, want 1", r.Restarts())
	}
}

func TestUncommittedOpsIgnored(t *testing.T) {
	r := New()
	files := map[string]model.FileID{"A": 0}
	t1 := rec(r, 1, "w(A:1)", files, []int{10})
	rec(r, 2, "w(A:1)", files, []int{5}) // never commits
	commit(r, t1, msec(20))
	if len(r.committed) != 1 {
		t.Errorf("ops = %d, want 1 (uncommitted excluded)", len(r.committed))
	}
	if err := r.CheckSerializable(); err != nil {
		t.Fatal(err)
	}
}

func TestThreeWayCycle(t *testing.T) {
	r := New()
	files := map[string]model.FileID{"A": 0, "B": 1, "C": 2}
	// T1 -> T2 on A, T2 -> T3 on B, T3 -> T1 on C.
	t1 := rec(r, 1, "w(A:1)->w(C:1)", files, []int{10, 60})
	t2 := rec(r, 2, "w(A:1)->w(B:1)", files, []int{20, 30})
	t3 := rec(r, 3, "w(B:1)->w(C:1)", files, []int{40, 50})
	commit(r, t1, msec(70))
	commit(r, t2, msec(71))
	commit(r, t3, msec(72))
	if err := r.CheckSerializable(); err == nil {
		t.Fatal("three-way cycle not detected")
	}
}
