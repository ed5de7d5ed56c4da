package machine

import (
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
	// sib is the same step's cohort on the next member of a shared ring
	// (ffRing): the ring holds its first member's cohort and reaches the
	// others through sib, in member order. Only that first cohort keeps
	// remaining up to date; a split copies it to the cohorts it promotes.
	sib *cohort
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
//     analytically whenever anything looks at or perturbs the node; nodes
//     in lockstep share that state (ffRing);
//   - the quantum-stepped engine (dpn_stepped.go) schedules one event per
//     service quantum — the original loop, kept as the differential oracle
//     and selectable only from this package's tests (ffdiff_test.go).
//
// The node keeps what is its own: its id, crash and straggler state, its
// completion callback and its observability hooks. The ring, cursor and
// in-flight service live in the embedded ffRing, which is the node's own
// (own) or, while the node is in lockstep with others, the first member's.
type dpn struct {
	*ffRing

	id  int
	eng *sim.Engine
	met *metrics.Collector

	// stepped selects the quantum-per-event oracle engine (tests only); a
	// stepped node always serves alone.
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

	// folded points at the machine's count of events folded into another:
	// cohort deliveries landed by an earlier cohort's delivery event
	// (Machine.deliver) and the completions of a shared ring's later members
	// (ffRing.finishSiblings). stamp adds it back; a node built outside a
	// machine owns a count that stays 0.
	folded *uint64

	// own is the ring the node serves alone or heads in lockstep; it is
	// unused, idle, while the node is a later member of another's.
	own ffRing
	// arriving is the node's cohort in a lockstep delivery until its ring
	// takes it (Machine.deliver, land).
	arriving *cohort

	// ob records cohort residency spans when observability is enabled,
	// parented on the step's execute span that rec holds.
	ob  *obs.Observer
	rec *engine.ObsRecorder
}

func newDPN(id int, eng *sim.Engine, met *metrics.Collector) *dpn {
	d := &dpn{id: id, eng: eng, met: met, folded: new(uint64)}
	d.onQuantum = d.quantumDone
	d.own.members = []*dpn{d}
	d.own.onRing = d.own.ringChange
	d.ffRing = &d.own
	return d
}

// add registers a cohort delivered to this node alone; service starts
// immediately if the node was idle. A node in lockstep with others leaves
// them first (detach). The new cohort joins the rotation behind the current
// position.
func (d *dpn) add(c *cohort) {
	if c.quantum <= 0 {
		panic("machine: cohort quantum must be positive")
	}
	if d.down {
		panic("machine: cohort delivered to a down node")
	}
	d.detach()
	d.sync()
	d.beginSpan(c)
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

// land delivers c, one cohort of a lockstep delivery (Machine.deliver: a
// chain of live cohorts, every node up, each node's arriving set), at its
// place in the chain; prev is the chain's previous cohort when that one
// started or joined a ring here, and land returns c when it does.
//
//   - An idle node joins prev's new ring when it runs at prev's speed:
//     its cohort hangs off prev's as a sibling, and the ring's booking
//     stands for the one it would have made. Otherwise it starts a ring of
//     its own (add).
//   - A busy node's ring takes the step as one element, made of every
//     member's arriving cohort, once every member is in the chain; the
//     members the chain misses are split off first. The later members'
//     cohorts then only open their spans when their turn comes.
func (d *dpn) land(c, prev *cohort) *cohort {
	if d.arriving == nil {
		d.beginSpan(c) // taken with the element an earlier member landed
		return nil
	}
	d.sync()
	r := d.ffRing
	if !r.busy {
		d.arriving = nil
		if prev == nil || prev.node.slow != d.slow {
			d.add(c)
			return c
		}
		f := prev.node.ffRing
		f.members = append(f.members, d)
		d.ffRing = f
		prev.sib = c
		d.beginSpan(c)
		return c
	}
	if !r.covered() {
		r.split(arrivingDiffers, true)
		r = d.ffRing
	}
	d.beginSpan(c)
	r.take()
	r.reschedule()
	return nil
}

// arrivingDiffers cuts a ring between a member the delivery reaches and one
// it misses.
func arrivingDiffers(a, b *dpn) bool { return (a.arriving == nil) != (b.arriving == nil) }

// beginSpan opens c's residency span at this node when observability is on.
func (d *dpn) beginSpan(c *cohort) {
	if d.ob.Enabled() && c.run != nil {
		t := c.run.e.Txn
		c.span = d.ob.Begin("cohort", "io", t.ID, d.id, t.StepIndex,
			d.rec.StepSpan(t.ID), d.eng.Now())
	}
}

// finish closes c's span at t and hands c to its completion callback.
func (d *dpn) finish(c *cohort, t sim.Time) {
	d.ob.End(c.span, t)
	if c.done != nil {
		c.done()
	} else if d.complete != nil {
		d.complete(c)
	}
}

// detach splits the node off a shared ring, brought up to date first; the
// members before it and those after it go on sharing among themselves.
// A node serving alone is left as it is.
func (d *dpn) detach() {
	if len(d.members) == 1 {
		return
	}
	d.ffRing.sync()
	d.ffRing.split(func(a, b *dpn) bool { return a == d || b == d }, true)
}

// queueLen reports the number of resident cohorts at the current virtual
// time (bringing the fast-forward ring up to date first, so load probes and
// gauges see exactly what the stepped engine would have).
func (d *dpn) queueLen() int {
	d.sync()
	return len(d.ring)
}

// sync brings the node's ring up to date (ffRing.sync); the stepped engine
// is always up to date.
func (d *dpn) sync() {
	if d.stepped {
		return
	}
	d.ffRing.sync()
}

// crash takes the node down: the in-progress service is cancelled and every
// resident cohort is lost. The killed cohorts are returned so the machine
// can abort the transactions that owned them. sync decides whether a
// boundary falling exactly on the crash instant is applied the same way the
// stepped calendar would have ordered the colliding quantum event against
// the crash event; the quantum the crash interrupts is never charged. A
// node in lockstep leaves its siblings first.
func (d *dpn) crash() []*cohort {
	d.detach()
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
// progress finishes at its booked speed. A node in lockstep leaves its
// siblings first, since it no longer runs at their speed.
func (d *dpn) setSlow(factor float64) {
	d.detach()
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
//
// A shared ring whose in-flight element died breaks up into single nodes.
// The forecast then reaches past that service's boundary, and when the
// boundary is irregular (a short dying slice, or under RunToCompletion a
// full slice whose quantum differs from the winner's) each member's booking
// takes its tie key's stamp from the event that notifies it and its
// boundary's anchor stamp from whichever event replays it, which shared
// members could not keep apart. killCohorts notifies every member, and each
// books its own completion event then, in the order the members' own
// bookings would have.
func (d *dpn) deadMarked() {
	if d.stepped || !d.busy {
		return
	}
	d.sync()
	if r := d.ffRing; len(r.members) > 1 && r.busy && r.ring[r.cur].dead {
		r.split(func(*dpn, *dpn) bool { return true }, false)
	}
	// reschedule also handles the ring having drained during the replay
	// (the mark left only dead cohorts): it cancels the stale booking.
	d.reschedule()
}

// flush applies every boundary up to and including the measurement horizon
// at the end of a run (ffRing.advanceTo); the stepped engine's quantum
// events have fired already.
func (d *dpn) flush(t sim.Time) {
	if d.stepped {
		return
	}
	d.advanceTo(t, true)
}

// dropDeadAt removes the run of dead cohorts at the rotation cursor,
// closing their residency spans (every member's) at virtual time t.
// Consecutive dead cohorts are spliced out in one copy (wrapping costs a
// second), instead of one O(ring) splice per corpse.
func (r *ffRing) dropDeadAt(t sim.Time) {
	for len(r.ring) > 0 {
		if r.cur >= len(r.ring) {
			r.cur = 0
		}
		j := r.cur
		for j < len(r.ring) && r.ring[j].dead {
			r.endSpans(r.ring[j], t)
			j++
		}
		if j == r.cur {
			return
		}
		r.ring = append(r.ring[:r.cur], r.ring[j:]...)
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
