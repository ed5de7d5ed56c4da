// Package admit is the streaming admission subsystem: it turns the
// closed-batch scheduler core into an open system. Arrivals from an
// unbounded stream enter a bounded, deadline-ordered admission queue with
// per-class sojourn SLOs; an epoch-batched loop (DGCC-style — graph
// construction decoupled from execution) drains the queue into the
// scheduler's bounded in-flight window (MPL) as completions free slots,
// admitting into the live WTPG incrementally; and backpressure policy sheds
// load when the queue overflows, deadlines lapse, or the observed admission
// sojourn p95 exceeds policy. Both backends (machine and live) drive the
// same Service object from their control-node loop, so policy behavior is
// identical under virtual and wall-clock time.
//
// The headline open-system metric is sustained-TPS-at-SLO
// (experiments.ServiceCapacity): the largest arrival rate at which a
// duration-bounded service run still passes the service SLO, found by
// bisection.
package admit

import (
	"fmt"
	"math"

	"batchsched/internal/sim"
)

// Class is a transaction service class. Interactive transactions carry the
// tight admission SLO; batch transactions the loose one — and batch is what
// overload control sheds first.
type Class uint8

const (
	// Batch is the default class (bulk work, loose admission SLO).
	Batch Class = iota
	// Interactive is the latency-sensitive class (tight admission SLO).
	Interactive
	// NumClasses sizes per-class arrays.
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Interactive:
		return "interactive"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ShedReason says why a transaction was turned away.
type ShedReason uint8

const (
	// ShedQueueFull: the bounded admission queue was full and the victim had
	// the latest deadline.
	ShedQueueFull ShedReason = iota
	// ShedDeadline: the transaction's admission deadline lapsed while
	// queued.
	ShedDeadline
	// ShedOverload: overload control was active (admission-sojourn p95 over
	// policy) and the arrival was batch-class.
	ShedOverload
	// ShedDrain: the service was shutting down with the transaction still
	// queued.
	ShedDrain
	// NumShedReasons sizes per-reason arrays.
	NumShedReasons
)

// String names the reason.
func (r ShedReason) String() string {
	switch r {
	case ShedQueueFull:
		return "queue-full"
	case ShedDeadline:
		return "deadline"
	case ShedOverload:
		return "overload"
	case ShedDrain:
		return "drain"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// NoDeadline is the deadline of a class with no admission SLO: such items
// sort last and never expire.
const NoDeadline = sim.Time(math.MaxInt64)

// Policy is the admission/backpressure policy of one service run.
type Policy struct {
	// MPL caps concurrently admitted (in-flight) transactions — the bounded
	// window the epoch loop fills as completions free slots. Required > 0:
	// an open system without a window bound has no backpressure point.
	MPL int
	// Epoch is the admission epoch: queued arrivals are batch-admitted at
	// this cadence (completions additionally retry scheduler-refused
	// admissions immediately, as in the closed path).
	Epoch sim.Time
	// MaxQueue bounds the admission queue. A full queue sheds the
	// latest-deadline transaction (the arrival itself, if nothing queued is
	// later).
	MaxQueue int
	// InteractiveFraction is the probability an arrival is interactive
	// (drawn from the backend's "class" RNG stream).
	InteractiveFraction float64
	// QueueSLO is the per-class admission-sojourn target: a transaction's
	// admission deadline is its arrival time plus its class's SLO, and a
	// queued transaction whose deadline has lapsed is shed at the next
	// epoch boundary instead of being admitted late. Zero means no
	// deadline for that class.
	QueueSLO [NumClasses]sim.Time
	// OverloadP95 triggers overload control: when the p95 admission sojourn
	// over the sliding sample window exceeds it, new batch-class arrivals
	// are shed until the p95 recovers below 3/4 of it. 0 disables the
	// sojourn trigger (the queue-full trigger below still applies).
	OverloadP95 sim.Time
	// EvictOnOverload additionally evicts one blocked batch-class
	// transaction from the in-flight window per overloaded epoch — removing
	// it from the live WTPG and releasing its locks — to relieve contention,
	// not just arrival pressure.
	EvictOnOverload bool
	// SojournWindow is the sliding sample window for the sojourn p95
	// (default 128).
	SojournWindow int
}

// DefaultPolicy returns a serviceable starting policy: an 8-wide window,
// 500 ms epochs, a 256-entry queue, 20% interactive traffic with a 10 s
// admission SLO (batch: 120 s), and overload control at a 30 s sojourn
// p95.
func DefaultPolicy() Policy {
	return Policy{
		MPL:                 8,
		Epoch:               500 * sim.Millisecond,
		MaxQueue:            256,
		InteractiveFraction: 0.2,
		QueueSLO:            [NumClasses]sim.Time{Batch: 120 * sim.Second, Interactive: 10 * sim.Second},
		OverloadP95:         30 * sim.Second,
		SojournWindow:       128,
	}
}

// Validate checks the policy.
func (p Policy) Validate() error {
	switch {
	case p.MPL <= 0:
		return fmt.Errorf("admit: Policy.MPL must be > 0 (the in-flight window bound), got %d", p.MPL)
	case p.Epoch <= 0:
		return fmt.Errorf("admit: Policy.Epoch must be > 0, got %v", p.Epoch)
	case p.MaxQueue <= 0:
		return fmt.Errorf("admit: Policy.MaxQueue must be > 0, got %d", p.MaxQueue)
	case p.InteractiveFraction < 0 || p.InteractiveFraction > 1:
		return fmt.Errorf("admit: Policy.InteractiveFraction must be in [0, 1], got %g", p.InteractiveFraction)
	case p.QueueSLO[Batch] < 0 || p.QueueSLO[Interactive] < 0:
		return fmt.Errorf("admit: Policy.QueueSLO must be >= 0")
	case p.OverloadP95 < 0:
		return fmt.Errorf("admit: Policy.OverloadP95 must be >= 0, got %v", p.OverloadP95)
	case p.SojournWindow < 0:
		return fmt.Errorf("admit: Policy.SojournWindow must be >= 0, got %d", p.SojournWindow)
	}
	return nil
}

// Deadline computes a class's admission deadline for an arrival at now.
func (p Policy) Deadline(class Class, now sim.Time) sim.Time {
	slo := p.QueueSLO[class]
	if slo <= 0 {
		return NoDeadline
	}
	return now + slo
}

// PickClass draws an arrival's class from the policy's interactive mix.
func (p Policy) PickClass(rng *sim.RNG) Class {
	if p.InteractiveFraction > 0 && rng.Float64() < p.InteractiveFraction {
		return Interactive
	}
	return Batch
}

// Item is one queued arrival.
type Item struct {
	// ID is the transaction id (backend-assigned).
	ID int64
	// Class is the service class.
	Class Class
	// Arrived is the arrival time; Deadline the admission deadline
	// (Policy.Deadline fills it on Arrive when zero).
	Arrived  sim.Time
	Deadline sim.Time
	// Payload carries the backend's transaction wrapper through the queue.
	Payload any

	seq uint64 // FIFO tiebreak within equal deadlines
	pos int    // heap index
}

// Shed pairs a shed item with its reason.
type Shed struct {
	Item   *Item
	Reason ShedReason
}

// Stats are the cumulative service counters.
type Stats struct {
	// Arrivals counts every offered transaction; Enqueued those that
	// entered the queue.
	Arrivals int
	Enqueued int
	// Admitted counts queue departures into the window, per class.
	Admitted [NumClasses]int
	// Shed counts turned-away transactions per reason and per class.
	Shed        [NumShedReasons]int
	ShedByClass [NumClasses]int
	// Evictions counts in-flight transactions evicted by overload control
	// (backends report them via NoteEviction).
	Evictions int
	// DepthHighWater is the maximum queue depth observed.
	DepthHighWater int
}

// TotalAdmitted sums admissions over classes.
func (s Stats) TotalAdmitted() int {
	n := 0
	for _, v := range s.Admitted {
		n += v
	}
	return n
}

// TotalShed sums sheds over reasons.
func (s Stats) TotalShed() int {
	n := 0
	for _, v := range s.Shed {
		n += v
	}
	return n
}

// EpochStats is one epoch's service snapshot, handed to the backend's epoch
// hook (batchsim's overloaded-epoch count, streaming gauges).
type EpochStats struct {
	// Epoch numbers epochs from 1; Start/End bracket it.
	Epoch int
	Start sim.Time
	End   sim.Time
	// Arrivals, Admitted, Completions, Sheds and Evictions are counts
	// within the epoch.
	Arrivals    int
	Admitted    int
	Completions int
	Sheds       int
	Evictions   int
	// QueueDepth and Active are the depths at epoch end.
	QueueDepth int
	Active     int
	// MeanRT/P95RT digest the epoch's completions (0 when none).
	MeanRT sim.Time
	P95RT  sim.Time
	// P95Sojourn is the sliding-window admission-sojourn p95 at epoch end;
	// Overloaded the overload-control state.
	P95Sojourn sim.Time
	Overloaded bool
	// Cum is the cumulative counter snapshot at epoch end.
	Cum Stats
}
