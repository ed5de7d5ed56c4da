package trace

import (
	"batchsched/internal/model"
	"batchsched/internal/sim"
)

// Event constructors shared by Writer (JSONL stream) and Recorder
// (in-memory), so the two representations cannot drift.

func stepEvent(txn *model.Txn, step int, at sim.Time) Event {
	st := txn.Steps[step]
	return Event{
		At: at.Milliseconds(), Kind: "step", Txn: txn.ID,
		Step: ptr(step), File: ptr(int(st.File)), Write: st.Write,
	}
}

func commitEvent(txn *model.Txn, at sim.Time) Event {
	return Event{
		At: at.Milliseconds(), Kind: "commit", Txn: txn.ID,
		RTms: (at - txn.Arrival).Milliseconds(), Restarts: txn.Restarts,
		Cost: txn.TotalCost(),
	}
}

func restartEvent(txn *model.Txn, at sim.Time) Event {
	return Event{At: at.Milliseconds(), Kind: "restart", Txn: txn.ID, Restarts: txn.Restarts}
}

func faultEvent(kind string, node int, at sim.Time) Event {
	return Event{At: at.Milliseconds(), Kind: "fault", Fault: kind, Node: ptr(node)}
}

func abortEvent(txn *model.Txn, reason string, at sim.Time) Event {
	return Event{At: at.Milliseconds(), Kind: "abort", Txn: txn.ID, Reason: reason, Restarts: txn.Restarts}
}

func retryEvent(txn *model.Txn, attempt int, at sim.Time) Event {
	return Event{At: at.Milliseconds(), Kind: "retry", Txn: txn.ID, Attempt: attempt}
}

// Recorder keeps events in memory for programmatic inspection — the
// machine.Observer counterpart of Writer's JSONL stream. By default it
// retains every event; WithLimit turns it into a ring buffer holding only
// the newest n, bounding memory on long runs where only the recent tail
// matters (e.g. the events leading up to a stall).
type Recorder struct {
	limit int
	buf   []Event
	next  int // ring write position once the buffer is full
	total int
}

// NewRecorder returns an in-memory recorder with unlimited retention.
func NewRecorder() *Recorder { return &Recorder{} }

// WithLimit bounds the recorder to the newest n events (n <= 0 restores
// unlimited retention) and returns the receiver for chaining. It resets any
// events already recorded; call it before the run starts.
func (r *Recorder) WithLimit(n int) *Recorder {
	if n < 0 {
		n = 0
	}
	r.limit = n
	r.buf = nil
	r.next = 0
	r.total = 0
	return r
}

func (r *Recorder) record(e Event) {
	r.total++
	if r.limit > 0 && len(r.buf) == r.limit {
		r.buf[r.next] = e
		r.next = (r.next + 1) % r.limit
		return
	}
	r.buf = append(r.buf, e)
}

// Events returns the retained events in chronological order (a copy).
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if r.limit > 0 && len(r.buf) == r.limit {
		out = append(out, r.buf[r.next:]...)
		return append(out, r.buf[:r.next]...)
	}
	return append(out, r.buf...)
}

// Total returns the number of events recorded over the run, including any
// that the ring buffer has since evicted.
func (r *Recorder) Total() int { return r.total }

// Dropped returns how many events the ring buffer evicted.
func (r *Recorder) Dropped() int { return r.total - len(r.buf) }

// StepDone implements machine.Observer.
func (r *Recorder) StepDone(txn *model.Txn, step int, at sim.Time) {
	r.record(stepEvent(txn, step, at))
}

// Committed implements machine.Observer.
func (r *Recorder) Committed(txn *model.Txn, at sim.Time) {
	r.record(commitEvent(txn, at))
}

// Restarted implements machine.Observer.
func (r *Recorder) Restarted(txn *model.Txn, at sim.Time) {
	r.record(restartEvent(txn, at))
}

// Fault implements engine.FaultObserver.
func (r *Recorder) Fault(kind string, node int, at sim.Time) {
	r.record(faultEvent(kind, node, at))
}

// AbortedTxn implements engine.FaultObserver.
func (r *Recorder) AbortedTxn(txn *model.Txn, reason string, at sim.Time) {
	r.record(abortEvent(txn, reason, at))
}

// Retried implements engine.FaultObserver.
func (r *Recorder) Retried(txn *model.Txn, attempt int, at sim.Time) {
	r.record(retryEvent(txn, attempt, at))
}
