package engine

import (
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// ObsRecorder is the observer that records the control node in the
// observability layer: lifecycle and CN job spans, and every CN metric on
// both backends — decision, restart, commit and shed counters, histograms
// and CN gauges. The backends record DPN cohort spans, parented on
// StepSpan, and register their CN busy time and DPN instruments.
type ObsRecorder struct {
	ob                                        *obs.Observer
	grants, blocks, delays, restarts, commits *obs.Counter
	sheds                                     *obs.Counter // service mode only
	lockWait, reqCPU, retries, rt             *obs.Histogram
	active, waiting                           *obs.Gauge

	job obs.SpanID // the CN job span in service
	// txns holds the span state of transactions base, base+1, ...; the
	// retired prefix is dropped, so it spans the transactions in flight.
	txns []txnSpans
	base int64
}

// txnSpans are one transaction's lifecycle span and its open phase span. A
// transaction is in at most one phase at a time — admit-wait, lock-wait,
// execute or commit — so one span id (0 when none is open) suffices.
type txnSpans struct {
	txn, phase obs.SpanID
	name       string   // the open phase
	since      sim.Time // its start
	retired    bool
}

// rateWindow is the trailing window of the CN counters' rates.
const rateWindow = 10 * sim.Second

// NewObsRecorder registers the control node's instruments in o, hands the
// scheduler the decision audit stamped with the host clock, and attaches
// the recorder to c. The backend registers its own instruments after
// these.
func NewObsRecorder(c *CN, o *obs.Observer) *ObsRecorder {
	reg := o.Metrics()
	rate := func(name, help string) *obs.Counter { return reg.Rate(name, help, rateWindow) }
	r := &ObsRecorder{
		ob:       o,
		base:     1, // the backends number arrivals from 1
		grants:   rate("grants", "Lock requests the scheduler granted."),
		blocks:   rate("blocks", "Lock requests the scheduler blocked."),
		delays:   rate("delays", "Lock requests the scheduler delayed by policy."),
		restarts: rate("restarts", "Transaction restarts: deadlock victims, failed validations and fault aborts."),
		commits:  rate("commits", "Committed transactions."),
		lockWait: reg.Histogram("lock_wait_ms", "Time from a blocked or delayed request to its grant, in milliseconds.",
			[]float64{1, 10, 100, 1_000, 10_000, 60_000, 300_000}),
		reqCPU: reg.Histogram("request_cpu_ms", "CN CPU time of one lock-request decision, in milliseconds.",
			[]float64{0.5, 1, 2, 5, 10, 20, 50, 100}),
		retries: reg.Histogram("restarts_per_txn", "Restarts of each committed transaction.",
			[]float64{0, 1, 2, 5, 10}),
	}
	hCNQ := reg.Histogram("cn_queue_depth", "CN job queue length at each metrics sample.",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64})
	r.rt = reg.Histogram("response_time_ms", "Response time of each committed transaction, arrival to commit, in milliseconds.",
		[]float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6})
	reg.GaugeFunc("cn_queue", "CN jobs waiting behind the one in service.", func() float64 {
		v := float64(c.queueLen())
		hCNQ.Observe(v)
		return v
	})
	r.active = reg.GaugeFunc("active_txns", "Admitted and uncommitted transactions.",
		func() float64 { return float64(c.active) })
	r.waiting = reg.GaugeFunc("waiting_txns", "Admission-parked, blocked and policy-delayed transactions.",
		func() float64 { return float64(c.Waiting()) })
	if svc := c.Service(); svc != nil {
		r.sheds = rate("sheds", "Transactions the admission service turned away.")
		reg.GaugeFunc("admit_queue_depth", "Transactions queued for admission.",
			func() float64 { return float64(svc.Depth()) })
		reg.GaugeFunc("admit_p95_sojourn_ms", "Sliding p95 admission-queue sojourn, in milliseconds.",
			func() float64 { return svc.P95Sojourn().Milliseconds() })
	}
	if a := o.Audit(); a != nil {
		a.SetClock(c.host.Now)
		if s, ok := c.sch.(sched.Audited); ok {
			s.SetAudit(a)
		}
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

// spans returns txn's span state (a scratch slot for a transaction already
// retired).
func (r *ObsRecorder) spans(txn int64) *txnSpans {
	i := txn - r.base
	if i < 0 {
		return &txnSpans{retired: true}
	}
	for int64(len(r.txns)) <= i {
		r.txns = append(r.txns, txnSpans{})
	}
	return &r.txns[i]
}

// Event records one control-node event.
func (r *ObsRecorder) Event(ev Event) {
	if ev.CountsRestart() {
		r.restarts.Add(ev.At, 1)
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
			r.grants.Add(ev.At, 1)
		case sched.Block:
			r.blocks.Add(ev.At, 1)
		case sched.Delay:
			r.delays.Add(ev.At, 1)
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
		r.retire(ev.Txn.ID, ev.At)
		switch ev.Kind {
		case EvCommit:
			r.commits.Add(ev.At, 1)
			r.retries.Observe(float64(ev.Txn.Restarts))
			// Clamped at zero: wall-clock stamps come from several
			// goroutines.
			r.rt.Observe(max(ev.At-ev.Txn.Arrival, 0).Milliseconds())
		case EvShed:
			r.sheds.Add(ev.At, 1)
		}
	}
}

// retire closes a leaving transaction's spans and drops the retired prefix
// of the span state.
func (r *ObsRecorder) retire(txn int64, at sim.Time) {
	s := r.spans(txn)
	r.leave(s, at)
	r.ob.End(s.txn, at)
	s.txn, s.retired = 0, true
	for len(r.txns) > 0 && r.txns[0].retired {
		r.txns = r.txns[1:]
		r.base++
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
	if s.name == "" {
		return
	}
	r.ob.End(s.phase, at)
	if s.name == "lock-wait" {
		r.lockWait.Observe(max(at-s.since, 0).Milliseconds())
	}
	s.phase, s.name = 0, ""
}

// SLOSnapshot is the /slo endpoint's view of a run in flight, read from
// the registry's stored values only, so the scrape goroutine may take it
// while the run executes.
type SLOSnapshot struct {
	ActiveTxns    int64   `json:"activeTxns"`
	WaitingTxns   int64   `json:"waitingTxns"`
	Commits       int64   `json:"commits"`
	CommitsPerSec float64 `json:"commitsPerSec"`
	Grants        int64   `json:"grants"`
	Blocks        int64   `json:"blocks"`
	Delays        int64   `json:"delays"`
	Restarts      int64   `json:"restarts"`
	P50RTSeconds  float64 `json:"p50RtSeconds"`
	P95RTSeconds  float64 `json:"p95RtSeconds"`
	ClockClamps   int64   `json:"clockClamps"`
}

// Snapshot returns the current SLO snapshot, rates ending at now (the
// zero value on a nil recorder). Safe from any goroutine.
func (r *ObsRecorder) Snapshot(now sim.Time) SLOSnapshot {
	if r == nil {
		return SLOSnapshot{}
	}
	ends, samples := r.ob.ClockClamps()
	return SLOSnapshot{
		ActiveTxns:    int64(r.active.Value()),
		WaitingTxns:   int64(r.waiting.Value()),
		Commits:       r.commits.Value(),
		CommitsPerSec: r.commits.RatePerSec(now),
		Grants:        r.grants.Value(),
		Blocks:        r.blocks.Value(),
		Delays:        r.delays.Value(),
		Restarts:      r.restarts.Value(),
		P50RTSeconds:  r.rt.Quantile(0.5) / 1e3,
		P95RTSeconds:  r.rt.Quantile(0.95) / 1e3,
		ClockClamps:   ends + samples,
	}
}
