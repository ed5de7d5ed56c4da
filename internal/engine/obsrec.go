package engine

import (
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// ObsRecorder is the observer that records the control node in the
// observability layer: lifecycle and CN job spans, decision counters,
// histograms and CN gauges. The backends record DPN cohort spans, parented
// on StepSpan.
type ObsRecorder struct {
	ob                                        *obs.Observer
	grants, blocks, delays, restarts, commits *obs.Counter
	lockWait, reqCPU, retries                 *obs.Histogram

	job  obs.SpanID // the CN job span in service
	txns []txnSpans // by transaction ID: the backends number arrivals from 1
}

// txnSpans are one transaction's lifecycle span and its open phase span. A
// transaction is in at most one phase at a time — admit-wait, lock-wait,
// execute or commit — so one span id (0 when none is open) suffices.
type txnSpans struct {
	txn, phase obs.SpanID
	name       string   // the open phase
	since      sim.Time // its start
}

// NewObsRecorder registers the control node's instruments in o, hands the
// scheduler the decision audit stamped with the host clock, and attaches
// the recorder to c. The backend registers its own gauges after these.
func NewObsRecorder(c *CN, o *obs.Observer) *ObsRecorder {
	r := &ObsRecorder{
		ob:       o,
		grants:   o.Counter("grants"),
		blocks:   o.Counter("blocks"),
		delays:   o.Counter("delays"),
		restarts: o.Counter("restarts"),
		commits:  o.Counter("commits"),
		lockWait: o.Histogram("lock_wait_ms",
			[]float64{1, 10, 100, 1_000, 10_000, 60_000, 300_000}),
		reqCPU: o.Histogram("request_cpu_ms",
			[]float64{0.5, 1, 2, 5, 10, 20, 50, 100}),
		retries: o.Histogram("restarts_per_txn",
			[]float64{0, 1, 2, 5, 10}),
	}
	hCNQ := o.Histogram("cn_queue_depth",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64})
	o.Gauge("cn_queue", func() float64 {
		v := float64(c.queueLen())
		hCNQ.Observe(v)
		return v
	})
	o.Gauge("active_txns", func() float64 { return float64(c.active) })
	o.Gauge("waiting_txns", func() float64 { return float64(len(c.delayed) + c.nBlocked) })
	o.Audit().SetClock(c.host.Now)
	if a, ok := c.sch.(sched.Audited); ok {
		a.SetAudit(o.Audit())
	}
	c.SetObserver(r)
	return r
}

// StepSpan is transaction txn's open "execute" span, the parent of its
// step's cohort spans (0 when none is open).
func (r *ObsRecorder) StepSpan(txn int64) obs.SpanID {
	if s := r.spans(txn); s.name == "execute" {
		return s.phase
	}
	return 0
}

// spans returns txn's span state (zero for a transaction that arrived
// before the recorder was attached).
func (r *ObsRecorder) spans(txn int64) *txnSpans {
	for int64(len(r.txns)) <= txn {
		r.txns = append(r.txns, txnSpans{})
	}
	return &r.txns[txn]
}

// Event records one control-node event.
func (r *ObsRecorder) Event(ev Event) {
	if ev.CountsRestart() {
		r.restarts.Inc()
	}
	switch ev.Kind {
	case EvJobStart:
		r.job = r.ob.Begin(ev.Op, "cn", ev.Txn.ID, -1, -1, 0, ev.At)
	case EvJobEnd:
		r.ob.End(r.job, ev.At)
		r.job = 0
	case EvRequest:
		r.reqCPU.Observe(ev.CPU.Milliseconds())
		switch ev.Decision {
		case sched.Grant:
			r.grants.Inc()
		case sched.Block:
			r.blocks.Inc()
		case sched.Delay:
			r.delays.Inc()
		}
	case EvArrive:
		r.spans(ev.Txn.ID).txn = r.ob.Begin("txn", "txn", ev.Txn.ID, -1, -1, 0, ev.At)
	case EvPark:
		r.enter(ev.Txn.ID, "admit-wait", -1, ev.At)
	case EvWait:
		// Blocked and policy-delayed both wait for a lock.
		r.enter(ev.Txn.ID, "lock-wait", ev.Txn.StepIndex, ev.At)
	case EvExecute:
		r.enter(ev.Txn.ID, "execute", ev.Txn.StepIndex, ev.At)
	case EvCommitting:
		r.enter(ev.Txn.ID, "commit", -1, ev.At)
	case EvStart, EvStepDone, EvAbort:
		r.leave(r.spans(ev.Txn.ID), ev.At)
	case EvCommit, EvEvict, EvShed:
		// The transaction retires.
		s := r.spans(ev.Txn.ID)
		r.leave(s, ev.At)
		r.ob.End(s.txn, ev.At)
		s.txn = 0
		if ev.Kind == EvCommit {
			r.commits.Inc()
			r.retries.Observe(float64(ev.Txn.Restarts))
		}
	}
}

// enter opens phase name of transaction txn under its txn span (extra is
// the step index, or -1) unless the transaction is already in it: a
// transaction parked again, or bouncing between blocked and delayed, keeps
// one span.
func (r *ObsRecorder) enter(txn int64, name string, extra int, at sim.Time) {
	s := r.spans(txn)
	if s.name == name {
		return
	}
	r.leave(s, at)
	s.phase = r.ob.Begin(name, "txn", txn, -1, extra, s.txn, at)
	s.name, s.since = name, at
}

// leave closes the open phase, feeding a lock wait's length to the
// lock-wait histogram (clamped at zero: wall-clock stamps may come from
// different goroutines).
func (r *ObsRecorder) leave(s *txnSpans, at sim.Time) {
	if s.phase == 0 {
		return
	}
	r.ob.End(s.phase, at)
	if s.name == "lock-wait" {
		r.lockWait.Observe(max(at-s.since, 0).Milliseconds())
	}
	s.phase, s.name = 0, ""
}
