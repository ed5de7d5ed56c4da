package machine

import (
	"fmt"

	"batchsched/internal/engine"
	"batchsched/internal/metrics"
	"batchsched/internal/obs"
	"batchsched/internal/sim"
)

// cohort is one partition scan of a step executing at a data-processing
// node: remaining service demand plus the round-robin quantum (the time to
// scan 1/DD object).
type cohort struct {
	remaining sim.Time
	quantum   sim.Time
	// done, when set, is called on completion (tests and custom drivers);
	// machine-owned cohorts leave it nil and complete through dpn.complete.
	done func()
	// run ties the cohort back to its step dispatch so a node crash can
	// abort the owning transaction; nil in tests.
	run *stepRun
	// node is the DPN the cohort is addressed to (used by the delivery
	// event); nil in tests that call dpn.add directly.
	node *dpn
	// next is the cohort of the same step placed right after this one when
	// both land at the same instant: one delivery event lands them all, in
	// placement order (Machine.deliver).
	next *cohort
	// dead marks a cohort whose transaction aborted (crash on a sibling
	// node, or step retry); the serving node drops it without calling done.
	dead bool
	// span is the cohort's residency span ("cohort", cat "io") when
	// observability is enabled; 0 otherwise.
	span obs.SpanID
}

// dpn is a data-processing node: a single server that interleaves its
// resident cohorts in round-robin order with a fixed quantum, as in the
// paper's execution model ("a DPN executes cohorts in a round-robin manner;
// when DD = k, the unit of the round-robin service is to scan the data of
// size 1/k object").
//
// Two service engines implement that discipline with identical semantics:
//
//   - the fast-forward engine (dpn_ff.go, the default) schedules one
//     calendar event per cohort completion and reconstructs the ring state
//     analytically whenever anything looks at or perturbs the node;
//   - the quantum-stepped engine (dpn_stepped.go) schedules one event per
//     service quantum — the original loop, kept as the differential oracle
//     and selectable only from this package's tests (ffdiff_test.go).
type dpn struct {
	id   int
	eng  *sim.Engine
	met  *metrics.Collector
	ring []*cohort
	cur  int
	busy bool

	// stepped selects the quantum-per-event oracle engine (tests only).
	stepped bool

	// down marks a crashed node; the machine refuses deliveries to it.
	down bool
	// slow is the straggler service-time multiplier (0 or 1 = nominal).
	slow float64
	// pending is the in-progress quantum's completion event (stepped
	// engine), kept so a crash can cancel it.
	pending *sim.Event

	// complete receives cohorts that finish with a nil done callback (set by
	// the machine). curSlice/curElapsed describe the stepped quantum in
	// progress; onQuantum is its pre-bound completion handler — the node is
	// a single server, so exactly one quantum is outstanding and per-quantum
	// state can live on the node instead of in a per-event closure.
	complete   func(*cohort)
	curSlice   sim.Time
	curElapsed sim.Time
	onQuantum  sim.Handler

	// Fast-forward state: the one service conceptually under way. Every
	// earlier service boundary has been applied to the ring; svcStart,
	// svcEnd, svcSlice and svcElapsed describe the in-flight service of
	// ring[cur] exactly as the stepped engine would have booked it.
	svcStart   sim.Time
	svcEnd     sim.Time
	svcSlice   sim.Time
	svcElapsed sim.Time
	// ffEvent is the single scheduled ring-change (next completion) event;
	// ffAt/ffPrio/ffTie cache its slot so an unchanged forecast keeps the
	// booking (and with it the FIFO tie position) instead of
	// cancel-and-rebooking.
	ffAt    sim.Time
	ffPrio  sim.Time
	ffTie   sim.TieKey
	ffEvent *sim.Event
	onRing  sim.Handler
	// anchor/anchorPre/anchorStamp identify the node's most recent irregular
	// service boundary — one whose elapsed time was not a full quantum (a
	// short final or dying slice), or the delivery that started the current
	// busy period. They parameterize the completion event's TieKey: the
	// stepped engine's booking chain is regular (full-quantum spaced) back to
	// exactly this boundary, so equal-(at, prio) completions on different
	// nodes resolve their calendar order the way the stepped chain bookings
	// would have.
	anchor      sim.Time
	anchorPre   sim.Time
	anchorStamp uint64
	// folded points at the machine's count of cohort deliveries folded into
	// an earlier cohort's delivery event (Machine.deliver), which stamp
	// adds back; a node built outside a machine owns a count that stays 0.
	folded *uint64
	// Forecast scratch (reused across calls to keep the hot path
	// allocation-free): post-round-one remainders, quanta and full-quantum
	// elapsed times of the surviving cohorts, in service order.
	fcRem []sim.Time
	fcQ   []sim.Time
	fcE   []sim.Time

	// ob records cohort residency spans when observability is enabled,
	// parented on the step's execute span that rec holds.
	ob  *obs.Observer
	rec *engine.ObsRecorder
}

func newDPN(id int, eng *sim.Engine, met *metrics.Collector) *dpn {
	d := &dpn{id: id, eng: eng, met: met, folded: new(uint64)}
	d.onQuantum = d.quantumDone
	d.onRing = d.ringChange
	return d
}

// add registers a cohort; service starts immediately if the node was idle.
// The new cohort joins the rotation behind the current position.
func (d *dpn) add(c *cohort) {
	if c.quantum <= 0 {
		panic("machine: cohort quantum must be positive")
	}
	if d.down {
		panic("machine: cohort delivered to a down node")
	}
	d.sync()
	if d.ob.Enabled() && c.run != nil {
		t := c.run.e.Txn
		c.span = d.ob.Begin("cohort", "io", t.ID, d.id, t.StepIndex,
			d.rec.StepSpan(t.ID), d.eng.Now())
	}
	d.ring = append(d.ring, c)
	if d.stepped {
		if !d.busy {
			d.busy = true
			d.serve()
		}
		return
	}
	if !d.busy {
		// The stepped engine's first quantum of a busy period is booked by
		// this very delivery event: the booking chain starts here.
		d.anchor = d.eng.Now()
		d.anchorPre = d.eng.CurPrio()
		d.anchorStamp = d.stamp()
		d.startService(d.eng.Now())
	}
	d.reschedule()
}

// stamp is the dispatch-order stamp of the running event, for tie keys: the
// number of events dispatched so far, counting every cohort delivery as an
// event of its own however the machine groups them. Tie keys then order
// same-instant completions independently of that grouping.
func (d *dpn) stamp() uint64 { return d.eng.Executed() + *d.folded }

// queueLen reports the number of resident cohorts at the current virtual
// time (bringing the fast-forward ring up to date first, so load probes and
// gauges see exactly what the stepped engine would have).
func (d *dpn) queueLen() int {
	d.sync()
	return len(d.ring)
}

// sync replays onto the ring every service boundary the stepped engine
// would have applied before the event currently being dispatched. All
// boundaries strictly before now qualify; a boundary landing exactly on the
// current instant qualifies iff the stepped quantum event standing for it —
// timestamp now, priority svcStart (its booking time) — sorts before the
// running event's (now, CurPrio) calendar key. Without the priority test a
// cohort delivered exactly on a quantum boundary would join the rotation
// ahead of the incumbent the stepped engine had already rotated past.
func (d *dpn) sync() {
	if d.stepped {
		return
	}
	now := d.eng.Now()
	d.advanceTo(now, false)
	prio := d.eng.CurPrio()
	for d.busy && d.svcEnd == now && d.svcStart < prio {
		if c := d.ring[d.cur]; !c.dead && c.remaining <= d.svcSlice {
			// A completion here would mean the (now, svcStart) completion
			// event is on the calendar and the engine dispatched the later
			// (now, prio) event first — impossible.
			panic(fmt.Sprintf("machine: dpn %d sync crossed a completion at %v", d.id, now))
		}
		d.applyBoundary()
	}
}

// crash takes the node down: the in-progress service is cancelled and every
// resident cohort is lost. The killed cohorts are returned so the machine
// can abort the transactions that owned them. sync decides whether a
// boundary falling exactly on the crash instant is applied the same way the
// stepped calendar would have ordered the colliding quantum event against
// the crash event; the quantum the crash interrupts is never charged.
func (d *dpn) crash() []*cohort {
	d.sync()
	d.down = true
	if d.pending != nil {
		d.pending.Cancel()
		d.pending = nil
	}
	if d.ffEvent != nil {
		d.ffEvent.Cancel()
		d.ffEvent = nil
	}
	killed := d.ring
	for _, c := range killed {
		d.ob.End(c.span, d.eng.Now())
	}
	d.ring = nil
	d.cur = 0
	d.busy = false
	return killed
}

// restore brings a crashed node back, empty and ready to serve.
func (d *dpn) restore() { d.down = false }

// setSlow applies (factor > 1) or clears (factor <= 1) the straggler
// multiplier. It affects services scheduled from now on; the one in
// progress finishes at its booked speed.
func (d *dpn) setSlow(factor float64) {
	d.sync()
	d.slow = factor
	if !d.stepped && d.busy {
		d.reschedule()
	}
}

// deadMarked tells the node a resident cohort's dead flag was just set (the
// owning transaction aborted on another node or timed out). The stepped
// engine discovers dead cohorts at quantum boundaries on its own; the
// fast-forward engine must re-derive its completion forecast, since the
// dead cohort will now drop out of the rotation without consuming service.
//
// Contract: callers must sync() the node BEFORE setting any dead flag (as
// killCohorts does). The dead flag is read by the lazy boundary replay, so a
// flag raised before the replay catches up would drop the cohort from
// boundaries in the past — quanta the stepped engine served while the
// cohort was still live.
func (d *dpn) deadMarked() {
	if d.stepped || !d.busy {
		return
	}
	d.sync()
	// reschedule also handles the ring having drained during the replay
	// (the mark left only dead cohorts): it cancels the stale booking.
	d.reschedule()
}

// dropDeadAt removes the run of dead cohorts at the rotation cursor,
// closing their residency spans at virtual time t. Consecutive dead
// cohorts are spliced out in one copy (wrapping costs a second), instead
// of one O(ring) splice per corpse.
func (d *dpn) dropDeadAt(t sim.Time) {
	for len(d.ring) > 0 {
		if d.cur >= len(d.ring) {
			d.cur = 0
		}
		j := d.cur
		for j < len(d.ring) && d.ring[j].dead {
			d.ob.End(d.ring[j].span, t)
			j++
		}
		if j == d.cur {
			return
		}
		d.ring = append(d.ring[:d.cur], d.ring[j:]...)
	}
}

// slowRound is the elapsed wall time of serving slice under the current
// straggler multiplier, rounded exactly as the stepped engine rounds each
// booked quantum.
func (d *dpn) slowRound(slice sim.Time) sim.Time {
	if d.slow > 1 {
		return sim.Time(float64(slice) * d.slow)
	}
	return slice
}
