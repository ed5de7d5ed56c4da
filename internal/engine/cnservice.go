package engine

import (
	"slices"

	"batchsched/internal/admit"
	"batchsched/internal/sim"
)

// Service mode: the control node behind the streaming-admission subsystem
// (internal/admit). Arrivals are offered to the admit.Service queue instead
// of going straight to the scheduler; an epoch expires overdue work,
// recomputes overload control, optionally evicts one blocked batch
// transaction, and batch-admits queued arrivals into the policy's in-flight
// window. Completions free window slots but fresh admissions wait for the
// next epoch boundary (epoch-batched admission, as in DGCC-style batch
// construction); only scheduler-refused admissions that already left the
// queue are retried immediately via the park queue. The backend owns the
// epoch clock: the simulator books an epoch event, the live backend ticks.

// svcState is the service-mode part of the control node; svc is nil
// outside service mode.
type svcState struct {
	svc        *admit.Service
	window     int // popped from the queue, not yet committed or evicted
	epochNum   int
	epochStart sim.Time
	epochPrev  admit.Stats
	epochRTs   []sim.Time
	epochHook  func(admit.EpochStats)
}

// EnableService switches the control node into service mode. The window
// bound doubles as the admission-guard MPL, so the park-queue guard agrees
// with the service accounting.
func (c *CN) EnableService(svc *admit.Service) {
	c.svc = svc
	c.cfg.MPL = svc.Policy().MPL
}

// Service is the admission service (nil outside service mode).
func (c *CN) Service() *admit.Service { return c.svc }

// SetEpochHook installs a per-epoch callback; it runs inside Epoch, so it
// must not mutate the control node.
func (c *CN) SetEpochHook(h func(admit.EpochStats)) { c.epochHook = h }

// offer puts one arrival into the admission queue, shedding whatever the
// policy turns away.
func (c *CN) offer(e *Exec, class admit.Class, now sim.Time) {
	e.class = class
	e.phase = phQueued
	it := &admit.Item{ID: e.Txn.ID, Class: class, Arrived: now, Payload: e}
	sheds, _ := c.svc.Arrive(it)
	for _, sh := range sheds {
		c.shed(sh)
	}
}

// shed retires a turned-away transaction: count it, publish EvShed, and
// recycle the wrapper (a queued exec has no event, timer or CN job
// referencing it).
func (c *CN) shed(sh admit.Shed) {
	e := sh.Item.Payload.(*Exec)
	switch sh.Reason {
	case admit.ShedQueueFull:
		c.met.ShedQueueFull()
	case admit.ShedDeadline:
		c.met.ShedDeadline()
	case admit.ShedOverload:
		c.met.ShedOverload()
	default:
		c.met.ShedDrain()
	}
	e.phase = phFinished
	c.unfinished--
	c.emit(EvShed, e.Txn)
	c.execPool = append(c.execPool, e)
}

// Epoch is the epoch boundary: expiry, overload control, optional
// eviction, window refill and stats emission.
func (c *CN) Epoch(now sim.Time) {
	for _, sh := range c.svc.Expire(now) {
		c.shed(sh)
	}
	c.svc.EndEpoch(now)
	if c.svc.Overloaded() && c.svc.Policy().EvictOnOverload {
		c.evictOne()
	}
	c.fillWindow(now)
	c.emitEpoch(now)
}

// fillWindow pops queued arrivals into the in-flight window until it is full
// or the queue empties. window counts transactions that left the queue and
// have not committed or been evicted — including scheduler-refused
// admissions in the park queue — so the MPL cap holds across retries.
func (c *CN) fillWindow(now sim.Time) {
	for c.window < c.svc.Policy().MPL {
		it, ok := c.svc.Pop(now)
		if !ok {
			break
		}
		c.window++
		c.tryAdmit(it.Payload.(*Exec))
	}
}

// evictOne removes the blocked or policy-delayed batch-class transaction
// with the smallest id from the in-flight window, releasing its locks and
// WTPG node. Only waiting transactions are candidates: they provably have no
// pending CN job, cohort, event or timer referencing their exec, so the
// wrapper can be retired on the spot. The smallest-id rule keeps victim
// selection deterministic (map iteration order must not leak into the run).
func (c *CN) evictOne() bool {
	var victim *Exec
	for _, e := range c.delayed {
		if e.class == admit.Batch && (victim == nil || e.Txn.ID < victim.Txn.ID) {
			victim = e
		}
	}
	for _, list := range c.blocked {
		for _, e := range list {
			if e.class == admit.Batch && (victim == nil || e.Txn.ID < victim.Txn.ID) {
				victim = e
			}
		}
	}
	if victim == nil {
		return false
	}
	c.removeWaiter(victim)
	c.sch.Aborted(victim.Txn) // releases locks, drops the WTPG node in place
	c.emit(EvEvict, victim.Txn)
	victim.Txn.StepIndex = 0
	victim.phase = phFinished
	c.active--
	c.window--
	c.unfinished--
	c.met.Evicted()
	c.svc.NoteEviction()
	c.wakeCommit(victim.Txn) // its released locks may unblock others
	c.execPool = append(c.execPool, victim)
	return true
}

// canEvict reports whether a later epoch may still evict a waiter: the
// policy evicts on overload, and overload control will be on after the
// next epoch boundary. With arrivals closed and the queue drained,
// EndEpoch's inputs no longer change, so that holds for every later epoch.
func (c *CN) canEvict() bool {
	return c.svc != nil && c.svc.Policy().EvictOnOverload && c.svc.OverloadedAfterEpoch()
}

// removeWaiter deletes e from the wait structure its phase names.
func (c *CN) removeWaiter(e *Exec) {
	switch e.phase {
	case phDelayed:
		for i, d := range c.delayed {
			if d == e {
				c.delayed = append(c.delayed[:i], c.delayed[i+1:]...)
				return
			}
		}
	case phBlocked:
		f := e.Txn.CurrentStep().File
		list := c.blocked[f]
		for i, b := range list {
			if b == e {
				c.blocked[f] = append(list[:i], list[i+1:]...)
				c.nBlocked--
				return
			}
		}
	}
	panic("engine: evict victim not found in its wait structure")
}

// emitEpoch digests the epoch (per-epoch deltas against the previous
// cumulative snapshot plus the epoch's completion RTs) and hands it to the
// epoch hook.
func (c *CN) emitEpoch(now sim.Time) {
	c.epochNum++
	cum := c.svc.Stats()
	es := admit.EpochStats{
		Epoch:       c.epochNum,
		Start:       c.epochStart,
		End:         now,
		Arrivals:    cum.Arrivals - c.epochPrev.Arrivals,
		Admitted:    cum.TotalAdmitted() - c.epochPrev.TotalAdmitted(),
		Completions: len(c.epochRTs),
		Sheds:       cum.TotalShed() - c.epochPrev.TotalShed(),
		Evictions:   cum.Evictions - c.epochPrev.Evictions,
		QueueDepth:  c.svc.Depth(),
		Active:      c.active,
		P95Sojourn:  c.svc.P95Sojourn(),
		Overloaded:  c.svc.Overloaded(),
		Cum:         cum,
	}
	if n := len(c.epochRTs); n > 0 {
		slices.Sort(c.epochRTs)
		var sum sim.Time
		for _, rt := range c.epochRTs {
			sum += rt
		}
		es.MeanRT = sum / sim.Time(n)
		idx := (n*95+99)/100 - 1
		if idx < 0 {
			idx = 0
		}
		es.P95RT = c.epochRTs[idx]
	}
	c.epochPrev = cum
	c.epochStart = now
	c.epochRTs = c.epochRTs[:0]
	if c.epochHook != nil {
		c.epochHook(es)
	}
}
