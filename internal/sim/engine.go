package sim

import "fmt"

// Handler is a piece of model logic run when an event fires. The engine
// passes the current virtual time.
type Handler func(now Time)

// PayloadHandler is a Handler with an attached argument. Hot paths that
// would otherwise allocate a fresh closure per event can instead schedule a
// long-lived function plus a pointer payload (boxing a pointer into an
// interface does not allocate).
type PayloadHandler func(now Time, arg any)

// Event is a scheduled occurrence on the calendar. It is returned by
// Schedule so callers can cancel it before it fires.
//
// The reference is valid only until the event fires or, once canceled, until
// the engine discards it from the calendar: after that the engine recycles
// the Event for a later Schedule call. Callers that retain an Event across
// dispatches (to cancel an in-flight timer) must drop the reference when its
// handler runs, as the handler's first action.
type Event struct {
	at Time
	// prio breaks ties among events with equal timestamps before seq does.
	// book sets it to the booking time, so for ordinary events (booking
	// times are nondecreasing in seq) it changes nothing; ScheduleAtPrio
	// sets it explicitly so a coalescing model can plant a future event in
	// exactly the tie position of the fine-grained event it stands for.
	prio     Time
	seq      uint64 // FIFO tie-break among equal (at, prio)
	fn       Handler
	pfn      PayloadHandler // set instead of fn by SchedulePayload
	arg      any
	canceled bool
	index    int     // heap index, -1 when not on the heap
	eng      *Engine // owner, for the canceled-event accounting in Cancel
	label    string
	// tie (when hasTie is set) refines the ordering among events with equal
	// (at, prio) beyond booking order; see TieKey and ScheduleAtTie.
	tie    TieKey
	hasTie bool
}

// TieKey describes the booking genealogy of an event that stands in for the
// last link of an elided event chain (one calendar event per service quantum,
// say). Two stand-ins with equal (at, prio) fire in the order the elided
// bookings would have been made, which is decided by walking both chains
// backward to their first difference. The chains are regular — each link
// booked by a predecessor firing one fixed spacing earlier — between
// irregularities, so the walk needs only:
//
//   - Q, the regular spacing (the full service quantum, under any current
//     service-rate multiplier);
//   - Anchor, the fire time of the chain's most recent irregular link
//     (a short service slice, or the booking that started the chain);
//   - Pre, that link's own tie-breaking priority (the fire time of ITS
//     predecessor, or the booking time of a chain-starting event);
//   - Stamp, a dispatch-order stamp of the irregular link, breaking ties
//     between chains whose anchors coincide exactly.
//
// Chains regular at the tie point diverge first where one hits its anchor;
// the comparison there is Pre versus the other chain's reconstructed regular
// value. Ordinary events never carry a TieKey and order purely by booking
// seq, as before.
type TieKey struct {
	Q      Time
	Anchor Time
	Pre    Time
	Stamp  uint64
}

// tieLess orders two tie keys for events sharing priority p. The second
// result is false when the keys cannot distinguish the events (fall back to
// booking order).
func tieLess(p Time, x, y *TieKey) (less, ok bool) {
	if *x == *y {
		return false, false
	}
	// Depth 1: the predecessor links, firing at p.
	wx := p - x.Q
	if x.Anchor == p {
		wx = x.Pre
	}
	wy := p - y.Q
	if y.Anchor == p {
		wy = y.Pre
	}
	if wx != wy {
		return wx < wy, true
	}
	if x.Anchor == p || y.Anchor == p {
		// At least one chain is already at its anchor; nothing deeper is
		// recorded, so the anchors' dispatch stamps decide.
		if x.Stamp != y.Stamp {
			return x.Stamp < y.Stamp, true
		}
		return false, false
	}
	// Both chains regular at depth 1 with the same spacing. They stay equal
	// until the shallower anchor, where the anchored chain's Pre meets the
	// other's reconstructed regular value.
	m := x.Anchor
	if y.Anchor > m {
		m = y.Anchor
	}
	vx := m - x.Q
	if x.Anchor == m {
		vx = x.Pre
	}
	vy := m - y.Q
	if y.Anchor == m {
		vy = y.Pre
	}
	if vx != vy {
		return vx < vy, true
	}
	if x.Stamp != y.Stamp {
		return x.Stamp < y.Stamp, true
	}
	return false, false
}

// Time returns the virtual time the event is scheduled for.
func (e *Event) Time() Time { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Cancel prevents the event's handler from running. Canceling an event that
// already fired (or was already canceled) is a no-op. The tombstone stays
// until it surfaces or the engine compacts; the engine keeps a count of live
// tombstones so heavy cancelers cannot bloat the heap.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if e.index >= 0 && e.eng != nil {
		e.eng.dead++
		e.eng.maybeCompact()
	}
}

// Engine is a single-threaded discrete-event simulator. Events scheduled for
// the same timestamp fire in scheduling order, which makes every run fully
// deterministic for a given seed and model.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	calendar eventHeap
	executed uint64
	// curPrio is the tie-breaking priority of the event being dispatched
	// (its booking time for ordinary events). Models that coalesce
	// fine-grained events read it to decide whether a stood-for event would
	// have fired before the one currently running.
	curPrio Time
	// dead counts canceled events still sitting on the calendar; when they
	// outnumber the live ones the calendar is compacted in one pass instead
	// of sifting each tombstone to the top.
	dead int
	// pool is a free list of fired/discarded events; a 2M-ms run dispatches
	// hundreds of thousands of events, and recycling them keeps Schedule
	// allocation-free at steady state.
	pool []*Event
}

// NewEngine returns an engine with the clock at zero and an empty calendar.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events dispatched so far (canceled events
// excluded).
func (e *Engine) Executed() uint64 { return e.executed }

// CurPrio returns the tie-breaking priority of the event currently being
// dispatched — its booking time, for events booked with Schedule and
// friends. An event's handler can compare (Now, CurPrio) against the
// (timestamp, priority) key of a fine-grained event it elided to decide
// whether that event would already have fired. Meaningful only inside a
// handler; between dispatches it holds the last dispatched event's priority.
func (e *Engine) CurPrio() Time { return e.curPrio }

// Pending returns the number of events currently on the calendar, including
// canceled events that have not yet been discarded.
func (e *Engine) Pending() int { return e.calendar.Len() }

// Schedule books fn to run after delay. A negative delay panics: the model
// would be rewinding time, which is always a bug.
func (e *Engine) Schedule(delay Time, fn Handler) *Event {
	return e.ScheduleLabeled(delay, "", fn)
}

// ScheduleAt books fn to run at absolute virtual time at (>= Now).
func (e *Engine) ScheduleAt(at Time, fn Handler) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	return e.book(at, e.now, "", fn)
}

// ScheduleAtPrio books fn at absolute virtual time at (>= Now) with an
// explicit tie-breaking priority: equal-timestamp events fire in (prio, seq)
// order, and every ordinary booking gets prio = its booking time. A model
// that coalesces a chain of fine-grained events into one future event passes
// the virtual time the final fine-grained event would have been booked at,
// placing the stand-in exactly where the chain's last link would have tied.
// prio may lie in the past (the stand-in for work already under way).
func (e *Engine) ScheduleAtPrio(at, prio Time, fn Handler) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if prio > at {
		panic(fmt.Sprintf("sim: priority %v after event time %v", prio, at))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	return e.book(at, prio, "", fn)
}

// ScheduleAtTie is ScheduleAtPrio with a booking-genealogy key: among events
// with equal (at, prio) that both carry one, the tie keys order the events as
// the elided fine-grained bookings would have been ordered (see TieKey).
func (e *Engine) ScheduleAtTie(at, prio Time, tie TieKey, fn Handler) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if prio > at {
		panic(fmt.Sprintf("sim: priority %v after event time %v", prio, at))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	// The key must be complete before the event enters the heap: the sift
	// compares with eventLess, and an event pushed tie-less and patched
	// afterwards can sit above a sibling the tie key says it follows.
	ev := e.alloc(at, prio, "", fn)
	ev.tie = tie
	ev.hasTie = true
	e.calendar.push(ev)
	return ev
}

// ScheduleLabeled is Schedule with a diagnostic label (shown in panics and
// useful in tests/tracing).
func (e *Engine) ScheduleLabeled(delay Time, label string, fn Handler) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	return e.book(e.now+delay, e.now, label, fn)
}

// SchedulePayload books fn(arg) to run after delay. It is Schedule for
// allocation-sensitive callers: fn is typically a long-lived bound function
// and arg carries the per-event state, so no per-event closure is needed.
func (e *Engine) SchedulePayload(delay Time, fn PayloadHandler, arg any) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	ev := e.book(e.now+delay, e.now, "", nil)
	ev.pfn = fn
	ev.arg = arg
	return ev
}

func (e *Engine) book(at, prio Time, label string, fn Handler) *Event {
	ev := e.alloc(at, prio, label, fn)
	e.calendar.push(ev)
	return ev
}

// alloc takes an event off the free list (or makes one), stamped with the
// next booking sequence number but not yet on any calendar.
func (e *Engine) alloc(at, prio Time, label string, fn Handler) *Event {
	e.seq++
	var ev *Event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		*ev = Event{at: at, prio: prio, seq: e.seq, fn: fn, eng: e, label: label}
	} else {
		ev = &Event{at: at, prio: prio, seq: e.seq, fn: fn, eng: e, label: label}
	}
	return ev
}

// maybeCompact rebuilds the calendar without its tombstones once canceled
// events outnumber live ones (and there are enough of them to be worth a
// pass). Compaction preserves dispatch order exactly: the heap order is a
// total order on (at, prio, seq), so any valid heap over the same live set
// pops identically.
func (e *Engine) maybeCompact() {
	if e.dead < 64 || e.dead*2 <= e.calendar.Len() {
		return
	}
	items := e.calendar.items
	n := 0
	for _, ev := range items {
		if ev.canceled {
			ev.index = -1
			e.recycle(ev)
			continue
		}
		items[n] = ev
		ev.index = n
		n++
	}
	for i := n; i < len(items); i++ {
		items[i] = nil
	}
	e.calendar.items = items[:n]
	e.calendar.reheap()
	e.dead = 0
}

// recycle returns a fired or discarded event to the free list, dropping its
// handler references so captured state can be collected.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.pfn = nil
	ev.arg = nil
	ev.label = ""
	e.pool = append(e.pool, ev)
}

// peekLive returns the next live event, discarding any tombstones that have
// surfaced, or nil when the calendar is empty.
func (e *Engine) peekLive() *Event {
	for e.calendar.Len() > 0 {
		next := e.calendar.peek()
		if !next.canceled {
			return next
		}
		e.calendar.pop()
		e.dead--
		e.recycle(next)
	}
	return nil
}

// Step dispatches the single next event. It returns false when the calendar
// is empty or the next event is beyond horizon.
func (e *Engine) Step(horizon Time) bool {
	next := e.peekLive()
	if next == nil || next.at > horizon {
		return false
	}
	e.calendar.pop()
	e.now = next.at
	e.curPrio = next.prio
	e.executed++
	if next.pfn != nil {
		pfn, arg := next.pfn, next.arg
		pfn(e.now, arg)
	} else {
		fn := next.fn
		fn(e.now)
	}
	e.recycle(next)
	return true
}

// Run dispatches events in timestamp order until the calendar drains or the
// next event lies beyond horizon. The clock is left at the last dispatched
// event (or horizon if nothing at all fired past it); callers that want the
// clock pinned to the horizon should use RunUntil.
func (e *Engine) Run(horizon Time) {
	for e.Step(horizon) {
	}
}

// RunUntil runs to the horizon and then advances the clock to exactly the
// horizon, which is what a fixed measurement window wants.
func (e *Engine) RunUntil(horizon Time) {
	e.Run(horizon)
	if e.now < horizon {
		e.now = horizon
	}
}
