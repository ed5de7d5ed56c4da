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
// the completion event is booked with ScheduleAtTie (and moved with
// Reschedule) at the priority the stepped engine's final quantum would have
// had — the virtual time it would have been booked at, the service's start
// — and a TieKey for the booking chain behind it, so among same-timestamp
// calendar events the coalesced completion sorts exactly where the stepped
// quantum event would have.
//
// Nodes in lockstep share the state. Nodes that landed the same cohorts at
// the same instants at one speed hold identical rings, so one ffRing serves
// them all: one replay, one forecast and one completion event, which
// charges every member's busy time and completes every member's cohort.
// The members' own completion events would have carried keys equal but for
// consecutive anchor stamps, firing back to back in member order, so the
// shared event stands for the first and counts the others as folded.

// ffRing is the fast-forward state of one node, or of several in lockstep.
// It is always its first member's own ring (dpn.own).
type ffRing struct {
	// members are the nodes the ring serves, in stamp order: member i's
	// anchor stamp, and the stamp of any tie key it would book, is
	// anchorStamp + i (its own event would have been dispatched i events
	// after the first member's). A ring forms from consecutive cohorts of
	// one delivery and only ever splits; once it drains its members serve
	// alone again (dissolve).
	members []*dpn
	// ring holds the resident cohorts in rotation order — the first
	// member's; each reaches the other members' through sib.
	ring []*cohort
	cur  int
	busy bool

	// The one service conceptually under way. Every earlier service
	// boundary has been applied to the ring; svcStart, svcEnd, svcSlice and
	// svcElapsed describe the in-flight service of ring[cur] exactly as the
	// stepped engine would have booked it.
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
	// anchor/anchorPre/anchorStamp identify the ring's most recent irregular
	// service boundary — one whose elapsed time was not a full quantum (a
	// short final or dying slice), or the delivery that started the current
	// busy period. They parameterize the completion event's TieKey: the
	// stepped engine's booking chain is regular (full-quantum spaced) back to
	// exactly this boundary, so equal-(at, prio) completions on different
	// nodes resolve their calendar order the way the stepped chain bookings
	// would have. anchorStamp is the first member's.
	anchor      sim.Time
	anchorPre   sim.Time
	anchorStamp uint64
	// Forecast scratch (reused across calls to keep the hot path
	// allocation-free): post-round-one remainders, quanta and full-quantum
	// elapsed times of the surviving cohorts, in service order.
	fcRem []sim.Time
	fcQ   []sim.Time
	fcE   []sim.Time
}

// stamp is the dispatch-order stamp of the running event, for tie keys: the
// number of events dispatched so far, counting every cohort delivery and
// every member's completion as an event of its own however the machine
// groups them. Tie keys then order same-instant completions independently
// of that grouping.
func (r *ffRing) stamp() uint64 {
	h := r.members[0]
	return h.eng.Executed() + *h.folded
}

// slowRound is the node's slowRound for the ring's speed, which every
// member shares.
func (r *ffRing) slowRound(slice sim.Time) sim.Time { return r.members[0].slowRound(slice) }

// charge adds one service's (or several whole rounds') busy time to every
// member.
func (r *ffRing) charge(t sim.Time) {
	for _, m := range r.members {
		m.met.DPNBusy(m.id, t)
	}
}

// endSpans closes the residency spans of element c on every member.
func (r *ffRing) endSpans(c *cohort, t sim.Time) {
	ob := r.members[0].ob
	for ; c != nil; c = c.sib {
		ob.End(c.span, t)
	}
}

// sync replays onto the ring every service boundary the stepped engine
// would have applied before the event currently being dispatched. All
// boundaries strictly before now qualify; a boundary landing exactly on the
// current instant qualifies iff the stepped quantum event standing for it —
// timestamp now, priority svcStart (its booking time) — sorts before the
// running event's (now, CurPrio) calendar key. Without the priority test a
// cohort delivered exactly on a quantum boundary would join the rotation
// ahead of the incumbent the stepped engine had already rotated past.
func (r *ffRing) sync() {
	h := r.members[0]
	now := h.eng.Now()
	r.advanceTo(now, false)
	prio := h.eng.CurPrio()
	for r.busy && r.svcEnd == now && r.svcStart < prio {
		if c := r.ring[r.cur]; !c.dead && c.remaining <= r.svcSlice {
			// A completion here would mean the (now, svcStart) completion
			// event is on the calendar and the engine dispatched the later
			// (now, prio) event first — impossible.
			panic(fmt.Sprintf("machine: dpn %d sync crossed a completion at %v", h.id, now))
		}
		r.applyBoundary()
	}
}

// startService begins the next service at virtual time t (which may lie in
// the past of the engine clock during a replay): dead cohorts at the cursor
// are dropped as of t, then the cohort at the cursor gets one quantum (or
// its remainder) under the current straggler factor. A ring that drains
// dissolves.
func (r *ffRing) startService(t sim.Time) {
	r.dropDeadAt(t)
	if len(r.ring) == 0 {
		r.busy = false
		r.dissolve()
		return
	}
	c := r.ring[r.cur]
	slice := c.quantum
	if c.remaining < slice {
		slice = c.remaining
	}
	r.svcStart = t
	r.svcSlice = slice
	r.svcElapsed = r.slowRound(slice)
	r.svcEnd = t + r.svcElapsed
	r.busy = true
}

// dissolve sends every member but the first back to its own ring, which it
// left idle: idle nodes serve alone until a delivery lands on them together
// again.
func (r *ffRing) dissolve() {
	for _, m := range r.members[1:] {
		m.ffRing = &m.own
	}
	r.members = r.members[:1]
}

// applyBoundary applies the in-flight service's end: charge its busy time,
// apply the slice to the cohort at the cursor (drop, complete or rotate —
// the exact body of the stepped engine's quantum handler), and start the
// next service at the boundary instant. A completion completes the first
// member's cohort and returns the others', which the caller completes with
// finishSiblings.
func (r *ffRing) applyBoundary() (siblings *cohort) {
	b := r.svcEnd
	r.charge(r.svcElapsed)
	c := r.ring[r.cur]
	if r.svcElapsed != r.slowRound(c.quantum) {
		// A short slice: the stepped booking chain is irregular here, so
		// this boundary anchors the tie keys of later completions.
		r.anchor = b
		r.anchorPre = r.svcStart
		r.anchorStamp = r.stamp()
	}
	if c.dead {
		r.ring = append(r.ring[:r.cur], r.ring[r.cur+1:]...)
		r.endSpans(c, b)
		r.startService(b)
		return nil
	}
	c.remaining -= r.svcSlice
	if c.remaining <= 0 {
		r.ring = append(r.ring[:r.cur], r.ring[r.cur+1:]...)
		siblings = c.sib
		r.members[0].finish(c, b)
	} else {
		r.cur++
	}
	r.startService(b)
	return siblings
}

// finishSiblings completes the later members' cohorts of an element whose
// completion was just applied at t, in member order. Each stands for that
// member's own completion event, dispatched next, so it counts as a folded
// event.
func (r *ffRing) finishSiblings(c *cohort, t sim.Time) {
	for ; c != nil; c = c.sib {
		*r.members[0].folded++
		c.node.finish(c, t)
	}
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
func (r *ffRing) advanceTo(t sim.Time, through bool) {
	wait := 0 // boundaries to apply before the next whole-round attempt
	for r.busy && (r.svcEnd < t || through && r.svcEnd == t) {
		c := r.ring[r.cur]
		if wait == 0 && r.svcSlice == c.quantum && r.svcElapsed == r.slowRound(c.quantum) {
			wait = len(r.ring)
			if r.skipRounds(t, through) {
				continue
			}
		}
		if !through && !c.dead && c.remaining <= r.svcSlice {
			panic(fmt.Sprintf("machine: dpn %d fast-forward crossed a completion at %v advancing to %v",
				r.members[0].id, r.svcEnd, t))
		}
		b := r.svcEnd
		r.finishSiblings(r.applyBoundary(), b)
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
// stamp stand, and the busy time is the same integer sum.
func (r *ffRing) skipRounds(t sim.Time, through bool) bool {
	span := t - r.svcStart
	if !through {
		span-- // the last skipped boundary must lie strictly before t
	}
	var round sim.Time
	m := span // at least one microsecond per round: span bounds m
	for _, c := range r.ring {
		if c.dead {
			return false
		}
		round += r.slowRound(c.quantum)
		m = min(m, (c.remaining-1)/c.quantum)
	}
	if m = min(m, span/round); m <= 0 {
		return false
	}
	for _, c := range r.ring {
		c.remaining -= m * c.quantum
	}
	r.charge(m * round)
	r.startService(r.svcStart + m*round)
	return true
}

// ringChange (pre-bound as onRing) is the single fast-forward calendar
// event: the forecast completion. It replays the epoch's interior
// boundaries, applies the completion itself, and books the next forecast —
// after the first member's completion callback, exactly where that
// member's stepped engine books its next quantum — before completing the
// other members' cohorts.
func (r *ffRing) ringChange(now sim.Time) {
	r.ffEvent = nil
	r.advanceTo(now, false)
	if !r.busy || r.svcEnd != now {
		// (unreachable when the reschedule discipline is intact)
		panic(fmt.Sprintf("machine: dpn %d ring-change event at %v found no boundary (busy=%v svcEnd=%v)",
			r.members[0].id, now, r.busy, r.svcEnd))
	}
	siblings := r.applyBoundary()
	r.reschedule()
	r.finishSiblings(siblings, now)
}

// reschedule brings the scheduled completion event in line with the current
// forecast. An unchanged forecast keeps the existing booking, and with it
// its FIFO tie position among same-instant events (and saves the heap
// work). A changed one moves the booked event in place
// (sim.Engine.Reschedule), to exactly where canceling it and booking anew
// would put it.
func (r *ffRing) reschedule() {
	var (
		at, prio, wq sim.Time
		ok           bool
	)
	if r.busy {
		at, prio, wq, ok = r.forecast()
	}
	if !ok {
		// Idle, or every resident cohort is dead: the ring drains with no
		// further completion, its boundaries replayed by the next sync or
		// flush.
		if r.ffEvent != nil {
			r.ffEvent.Cancel()
			r.ffEvent = nil
		}
		return
	}
	tie := sim.TieKey{Q: r.slowRound(wq), Anchor: r.anchor, Pre: r.anchorPre, Stamp: r.anchorStamp}
	if prio != r.svcStart && r.svcElapsed != tie.Q {
		// The completion lies beyond an in-flight service whose elapsed time
		// is not the winner's quantum: a dying cohort's remainder, a dead
		// cohort of another length under RunToCompletion, or a service
		// booked before a straggler toggle. That boundary, though not yet
		// replayed, is the chain's true anchor. A shared ring never gets
		// here: its live in-flight cohort either completes in this service
		// or runs a full quantum at the ring's one speed, and without
		// RunToCompletion every cohort has the same quantum; a toggle
		// detaches its node first, and deadMarked serves a ring's members
		// alone once its in-flight cohort dies.
		tie.Anchor, tie.Pre, tie.Stamp = r.svcEnd, r.svcStart, r.stamp()
	}
	if r.ffEvent != nil && at == r.ffAt && prio == r.ffPrio && tie == r.ffTie {
		return
	}
	r.ffAt, r.ffPrio, r.ffTie = at, prio, tie
	if r.ffEvent != nil {
		r.members[0].eng.Reschedule(r.ffEvent, at, prio, tie)
		return
	}
	r.ffEvent = r.members[0].eng.ScheduleAtTie(at, prio, tie, r.onRing)
}

// forecast computes the virtual time of the ring's next cohort completion
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
func (r *ffRing) forecast() (at, prio, winQ sim.Time, ok bool) {
	k := len(r.ring)
	if c := r.ring[r.cur]; !c.dead && c.remaining <= r.svcSlice {
		return r.svcEnd, r.svcStart, c.quantum, true
	}
	t := r.svcEnd
	r.fcRem, r.fcQ, r.fcE = r.fcRem[:0], r.fcQ[:0], r.fcE[:0]
	for j := 1; j <= k; j++ {
		i := r.cur + j
		if i >= k {
			i -= k
		}
		c := r.ring[i]
		if c.dead {
			continue
		}
		rem := c.remaining
		if i == r.cur {
			rem -= r.svcSlice
		}
		if rem <= c.quantum {
			return t + r.slowRound(rem), t, c.quantum, true
		}
		full := r.slowRound(c.quantum)
		t += full
		r.fcRem = append(r.fcRem, rem-c.quantum)
		r.fcQ = append(r.fcQ, c.quantum)
		r.fcE = append(r.fcE, full)
	}
	if len(r.fcRem) == 0 {
		return 0, 0, 0, false // every resident cohort is dead
	}
	var round sim.Time
	for _, e := range r.fcE {
		round += e
	}
	var bestAt, bestPrio, bestQ, prefix sim.Time
	for o, rem := range r.fcRem {
		q := r.fcQ[o]
		n := (rem + q - 1) / q
		start := t + (n-1)*round + prefix
		done := start + r.slowRound(rem-(n-1)*q)
		// Survivor services are sequential and at least 1µs long, so a
		// strictly-earlier winner exists; on the (impossible) tie the
		// rotation-order first survivor is kept.
		if o == 0 || done < bestAt {
			bestAt, bestPrio, bestQ = done, start, q
		}
		prefix += r.fcE[o]
	}
	return bestAt, bestPrio, bestQ, true
}

// Lockstep bookkeeping: how rings form, grow and split. Every ring is its
// first member's own; a split hands each later run to its first member's
// own ring, which is idle and unused while that node is a later member.

// covered reports whether the delivery being landed reaches every member.
func (r *ffRing) covered() bool {
	for _, m := range r.members {
		if m.arriving == nil {
			return false
		}
	}
	return true
}

// take appends the delivery's element: the first member's arriving cohort,
// with the other members' chained behind it through sib.
func (r *ffRing) take() {
	var last *cohort
	for _, m := range r.members {
		c := m.arriving
		m.arriving = nil
		if last == nil {
			r.ring = append(r.ring, c)
		} else {
			last.sib = c
		}
		last = c
	}
}

// split breaks the ring, brought up to date, into maximal runs of
// consecutive members, starting a new run before each member i > 0 for
// which cut(members[i-1], members[i]) holds. The first run keeps the ring
// and its booking. Each later run moves to its first member's own ring,
// with a copy of the shared state, its members' sibling cohorts as the
// elements and its first member's anchor stamp; with book set it books its
// own completion event (with a fresh seq, where the members' own bookings
// would have kept theirs), and otherwise the caller books every run.
func (r *ffRing) split(cut func(a, b *dpn) bool, book bool) {
	for {
		ms := r.members
		i := 1
		for i < len(ms) && !cut(ms[i-1], ms[i]) {
			i++
		}
		if i == len(ms) {
			return
		}
		nr := &ms[i].own
		nr.members = append(nr.members[:0], ms[i:]...)
		r.members = ms[:i]
		nr.ring = nr.ring[:0]
		for _, e := range r.ring {
			last := e // the element's cohort on the first run's last member
			for k := 1; k < i; k++ {
				last = last.sib
			}
			c := last.sib
			last.sib = nil
			c.remaining = e.remaining
			nr.ring = append(nr.ring, c)
		}
		nr.cur, nr.busy = r.cur, r.busy
		nr.svcStart, nr.svcEnd, nr.svcSlice, nr.svcElapsed = r.svcStart, r.svcEnd, r.svcSlice, r.svcElapsed
		nr.anchor, nr.anchorPre, nr.anchorStamp = r.anchor, r.anchorPre, r.anchorStamp+uint64(i)
		nr.ffEvent = nil
		for _, m := range nr.members {
			m.ffRing = nr
		}
		if book {
			nr.reschedule()
		}
		r = nr
	}
}
