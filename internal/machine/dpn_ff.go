package machine

import (
	"fmt"

	"batchsched/internal/sim"
)

// The fast-forward service engine: between ring-membership changes
// (arrival, completion, crash, straggler toggle, cohort death) round-robin
// with fixed quanta is closed-form, so instead of one calendar event per
// quantum the node keeps exactly one conceptual service "in flight"
// (svcStart..svcEnd, mirroring the quantum the stepped engine would have
// booked) and schedules a single event at the analytically computed next
// completion. Whenever anything looks at or perturbs the ring — an arrival,
// a crash, a straggler toggle, a dead mark, a queue-length probe, a busy
// gauge — the boundaries between svcEnd and the current virtual time are
// replayed onto the ring first, so every observer sees exactly the state
// the stepped engine would have shown it.
//
// Equivalence with the stepped engine rests on two facts. First, inside an
// epoch (no ring change) every service is a full quantum: a short or final
// slice implies a completion, which ends the epoch — so replaying
// boundaries strictly before a perturbation can never cross a completion,
// and per-service busy times (each rounded from the same slice exactly as
// the stepped engine rounds its booking) sum to the same totals. Second,
// the completion event is booked with ScheduleAtPrio carrying the virtual
// time the stepped engine would have booked the final quantum at (the
// service's start), so among same-timestamp calendar events the coalesced
// completion sorts exactly where the stepped quantum event would have.

// startService begins the next service at virtual time t (which may lie in
// the past of the engine clock during a replay): dead cohorts at the cursor
// are dropped as of t, then the cohort at the cursor gets one quantum (or
// its remainder) under the current straggler factor.
func (d *dpn) startService(t sim.Time) {
	d.dropDeadAt(t)
	if len(d.ring) == 0 {
		d.busy = false
		return
	}
	c := d.ring[d.cur]
	slice := c.quantum
	if c.remaining < slice {
		slice = c.remaining
	}
	d.svcStart = t
	d.svcSlice = slice
	d.svcElapsed = d.slowRound(slice)
	d.svcEnd = t + d.svcElapsed
	d.busy = true
}

// applyBoundary applies the in-flight service's end: charge its busy time,
// apply the slice to the cohort at the cursor (drop, complete or rotate —
// the exact body of the stepped engine's quantum handler), and start the
// next service at the boundary instant.
func (d *dpn) applyBoundary() {
	b := d.svcEnd
	d.met.DPNBusy(d.id, d.svcElapsed)
	c := d.ring[d.cur]
	if d.svcElapsed != d.slowRound(c.quantum) {
		// A short slice: the stepped booking chain is irregular here, so
		// this boundary anchors the tie keys of later completions.
		d.anchor = b
		d.anchorPre = d.svcStart
		d.anchorStamp = d.eng.Executed()
	}
	if c.dead {
		d.ring = append(d.ring[:d.cur], d.ring[d.cur+1:]...)
		d.ob.End(c.span, b)
		d.startService(b)
		return
	}
	c.remaining -= d.svcSlice
	if c.remaining <= 0 {
		d.ring = append(d.ring[:d.cur], d.ring[d.cur+1:]...)
		d.ob.End(c.span, b)
		if c.done != nil {
			c.done()
		} else if d.complete != nil {
			d.complete(c)
		}
	} else {
		d.cur++
	}
	d.startService(b)
}

// advanceTo replays every service boundary strictly before t, or up to and
// including t when through is set (flush). Inside an epoch all such
// boundaries are full quanta or dead-cohort drops; crossing a completion on
// the way to a strict bound would mean the forecast missed a ring change,
// which is a bug worth dying loudly for.
//
// Whole rounds are applied at once (skipRounds); the boundaries left over,
// fewer than one round, and those on the way to a state skipRounds accepts
// are applied one at a time. Each attempt is followed by one pass of the
// ring before the next, so the replay stays linear in the boundaries it
// covers.
func (d *dpn) advanceTo(t sim.Time, through bool) {
	wait := 0 // boundaries to apply before the next whole-round attempt
	for d.busy && (d.svcEnd < t || through && d.svcEnd == t) {
		c := d.ring[d.cur]
		if wait == 0 && d.svcSlice == c.quantum && d.svcElapsed == d.slowRound(c.quantum) {
			wait = len(d.ring)
			if d.skipRounds(t, through) {
				continue
			}
		}
		if !through && !c.dead && c.remaining <= d.svcSlice {
			panic(fmt.Sprintf("machine: dpn %d fast-forward crossed a completion at %v advancing to %v",
				d.id, d.svcEnd, t))
		}
		d.applyBoundary()
		if wait > 0 {
			wait--
		}
	}
}

// skipRounds applies m whole round-robin rounds in one pass and reports
// whether m was positive. The caller guarantees that the in-flight service
// is a full quantum at the current straggler speed. With no resident
// cohort dead the ring is then periodic: every round serves each cohort i
// one full quantum q_i and lasts R = Σ slowRound(q_i), exactly the services
// the stepped engine would book. m is the largest count whose rounds end
// (at svcStart + m·R, the last boundary of round m) before t — or at t
// when through is set — and cross no completion: m·q_i < remaining_i for
// every cohort. Every skipped boundary is regular, so the anchor and its
// Executed() stamp stand, and the busy time is the same integer sum.
func (d *dpn) skipRounds(t sim.Time, through bool) bool {
	span := t - d.svcStart
	if !through {
		span-- // the last skipped boundary must lie strictly before t
	}
	var round sim.Time
	m := span // at least one microsecond per round: span bounds m
	for _, c := range d.ring {
		if c.dead {
			return false
		}
		round += d.slowRound(c.quantum)
		m = min(m, (c.remaining-1)/c.quantum)
	}
	if m = min(m, span/round); m <= 0 {
		return false
	}
	for _, c := range d.ring {
		c.remaining -= m * c.quantum
	}
	d.met.DPNBusy(d.id, m*round)
	d.startService(d.svcStart + m*round)
	return true
}

// flush applies every boundary up to and including the measurement horizon
// at the end of a run: the stepped engine's quantum events at exactly the
// horizon still fire (charging their busy time), while the fast-forward
// completion event may lie beyond it, so the epoch's tail must be replayed
// before the collector is summarized. Boundaries at the horizon cannot be
// completions — a completion at or before the horizon fires as a calendar
// event before the run ends.
func (d *dpn) flush(t sim.Time) {
	if d.stepped {
		return
	}
	d.advanceTo(t, true)
}

// ringChange (pre-bound as d.onRing) is the single fast-forward calendar
// event: the forecast completion. It replays the epoch's interior
// boundaries, applies the completion itself, and books the next forecast —
// after the completion callbacks, exactly where the stepped engine books
// its next quantum.
func (d *dpn) ringChange(now sim.Time) {
	d.ffEvent = nil
	d.advanceTo(now, false)
	if !d.busy || d.svcEnd != now {
		// (unreachable when the reschedule discipline is intact)
		panic(fmt.Sprintf("machine: dpn %d ring-change event at %v found no boundary (busy=%v svcEnd=%v)",
			d.id, now, d.busy, d.svcEnd))
	}
	d.applyBoundary()
	d.reschedule()
}

// reschedule brings the scheduled completion event in line with the current
// forecast. An unchanged forecast keeps the existing booking: lockstep
// sibling cohorts on different nodes book their completions in delivery
// order at the same instant, and keeping the original event preserves that
// FIFO tie order (and saves two heap operations).
func (d *dpn) reschedule() {
	var (
		at, prio, wq sim.Time
		ok           bool
	)
	if d.busy {
		at, prio, wq, ok = d.forecast()
	}
	if !ok {
		// Idle, or every resident cohort is dead: the ring drains with no
		// further completion, its boundaries replayed by the next sync or
		// flush.
		if d.ffEvent != nil {
			d.ffEvent.Cancel()
			d.ffEvent = nil
		}
		return
	}
	tie := sim.TieKey{Q: d.slowRound(wq), Anchor: d.anchor, Pre: d.anchorPre, Stamp: d.anchorStamp}
	if prio != d.svcStart && d.svcElapsed != tie.Q {
		// The completion lies beyond an in-flight service ending in a short
		// slice (a dying cohort's remainder): that boundary, though not yet
		// replayed, is the chain's true anchor.
		tie.Anchor, tie.Pre, tie.Stamp = d.svcEnd, d.svcStart, d.eng.Executed()
	}
	if d.ffEvent != nil {
		if at == d.ffAt && prio == d.ffPrio && tie == d.ffTie {
			return
		}
		d.ffEvent.Cancel()
	}
	d.ffAt, d.ffPrio, d.ffTie = at, prio, tie
	d.ffEvent = d.eng.ScheduleAtTie(at, prio, tie, d.onRing)
}

// forecast computes the virtual time of the node's next cohort completion
// and the time the stepped engine would have booked the final quantum at
// (the completion event's tie-breaking priority). Requires an in-flight
// service.
//
// The in-flight slice may itself be final. Otherwise one walk over the ring
// (the rotation following the in-flight service) resolves the first round —
// dead cohorts drop for free, and any cohort within one quantum of done
// completes there. If a full round passes with no completion, every
// survivor needs n_i = ceil(remaining_i/quantum_i) further services, all
// interior rounds are full quanta, and the winner is the cohort minimizing
// the closed-form finish time
//
//	t1 + (n_i - 1)*R + P_i + final_i
//
// where t1 ends the first round, R is the full-round duration, P_i the
// full quanta served before cohort i within a round, and final_i its last
// (possibly short) slice — each term rounded under the straggler factor
// exactly as the stepped engine would round that booking.
func (d *dpn) forecast() (at, prio, winQ sim.Time, ok bool) {
	k := len(d.ring)
	if c := d.ring[d.cur]; !c.dead && c.remaining <= d.svcSlice {
		return d.svcEnd, d.svcStart, c.quantum, true
	}
	t := d.svcEnd
	d.fcRem, d.fcQ, d.fcE = d.fcRem[:0], d.fcQ[:0], d.fcE[:0]
	for j := 1; j <= k; j++ {
		i := d.cur + j
		if i >= k {
			i -= k
		}
		c := d.ring[i]
		if c.dead {
			continue
		}
		r := c.remaining
		if i == d.cur {
			r -= d.svcSlice
		}
		if r <= c.quantum {
			return t + d.slowRound(r), t, c.quantum, true
		}
		full := d.slowRound(c.quantum)
		t += full
		d.fcRem = append(d.fcRem, r-c.quantum)
		d.fcQ = append(d.fcQ, c.quantum)
		d.fcE = append(d.fcE, full)
	}
	if len(d.fcRem) == 0 {
		return 0, 0, 0, false // every resident cohort is dead
	}
	var round sim.Time
	for _, e := range d.fcE {
		round += e
	}
	var bestAt, bestPrio, bestQ, prefix sim.Time
	for o, rem := range d.fcRem {
		q := d.fcQ[o]
		n := (rem + q - 1) / q
		start := t + (n-1)*round + prefix
		done := start + d.slowRound(rem-(n-1)*q)
		// Survivor services are sequential and at least 1µs long, so a
		// strictly-earlier winner exists; on the (impossible) tie the
		// rotation-order first survivor is kept.
		if o == 0 || done < bestAt {
			bestAt, bestPrio, bestQ = done, start, q
		}
		prefix += d.fcE[o]
	}
	return bestAt, bestPrio, bestQ, true
}
