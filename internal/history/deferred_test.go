package history

import (
	"testing"

	"batchsched/internal/model"
)

// deferredScenario builds a history that is legal under Kung-Robinson
// backward validation but looks cyclic if optimistic writes are recorded at
// execution time instead of commit time:
//
//	T2 (optimistic) buffers writes of A and B early (t=8, t=10) but commits
//	at t=40; T1 reads B at t=5 and A at t=20 and commits at t=30 writing
//	nothing. Validation passes for both (W(T1) = ∅; nothing committed
//	during T1). With in-place stamping the checker would see
//	w2(B)@8 after r1(B)@5 (T1->T2) but w2(A)@10 before r1(A)@20 (T2->T1):
//	a phantom cycle. With commit-time stamping both writes land at t=40 and
//	the history is serial: T1 then T2.
func deferredScenario(r *Recorder) {
	files := map[string]model.FileID{"A": 0, "B": 1}
	t1 := rec(r, 1, "r(B:1)->r(A:1)", files, []int{5, 20})
	t2 := rec(r, 2, "w(B:1)->w(A:1)", files, []int{8, 10})
	commit(r, t1, msec(30))
	commit(r, t2, msec(40))
}

func TestDeferredWritesResolvePhantomCycle(t *testing.T) {
	inPlace := New()
	deferredScenario(inPlace)
	if err := inPlace.CheckSerializable(); err == nil {
		t.Fatal("in-place recording should see the phantom cycle (that is the bug the deferred mode fixes)")
	}

	deferred := NewDeferredWrites()
	deferredScenario(deferred)
	if err := deferred.CheckSerializable(); err != nil {
		t.Fatalf("deferred-writes recording must accept the KR-valid history: %v", err)
	}
}

func TestDeferredWritesKeepReadTimes(t *testing.T) {
	r := NewDeferredWrites()
	files := map[string]model.FileID{"A": 0}
	// Writer commits first; a later reader must still order after it.
	w := rec(r, 1, "w(A:1)", files, []int{10})
	commit(r, w, msec(15))
	rd := rec(r, 2, "r(A:1)", files, []int{20})
	commit(r, rd, msec(25))
	if err := r.CheckSerializable(); err != nil {
		t.Fatalf("serial commit order flagged: %v", err)
	}
	if len(r.committed) != 2 {
		t.Errorf("ops = %d", len(r.committed))
	}
}
