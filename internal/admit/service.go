package admit

import (
	"container/heap"
	"slices"

	"batchsched/internal/sim"
)

// Service is the admission queue plus overload control of one service run.
// It is driven single-threaded from the backend's control-node loop (the
// simulator's event handlers, the live backend's CN goroutine) and holds no
// locks — exactly like the schedulers.
type Service struct {
	pol   Policy
	q     itemHeap
	seq   uint64
	stats Stats

	// Sliding admission-sojourn window: the ring keeps arrival order (so
	// the sample that leaves is known), sorted holds the same live samples
	// in ascending order for an O(1) nearest-rank read.
	soj     []sim.Time
	sojNext int
	sorted  []sim.Time

	overload bool
}

// NewService builds a service for the given (validated) policy.
func NewService(pol Policy) (*Service, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if pol.SojournWindow == 0 {
		pol.SojournWindow = 128
	}
	return &Service{
		pol:    pol,
		soj:    make([]sim.Time, pol.SojournWindow),
		sorted: make([]sim.Time, 0, pol.SojournWindow),
	}, nil
}

// Policy returns the active policy.
func (s *Service) Policy() Policy { return s.pol }

// Depth returns the current queue depth.
func (s *Service) Depth() int { return len(s.q) }

// Overloaded reports whether overload control is shedding batch arrivals.
func (s *Service) Overloaded() bool { return s.overload }

// Stats returns the cumulative counters.
func (s *Service) Stats() Stats { return s.stats }

// NoteEviction counts one in-flight eviction (performed by the backend).
func (s *Service) NoteEviction() { s.stats.Evictions++ }

// Arrive offers one arrival to the queue (Item.Arrived must be set; a zero
// Deadline is filled from the policy). The returned sheds are the
// transactions turned away as a consequence — the offered item itself
// (overload control, or queue full with nothing later-deadlined queued) or
// a displaced queued item. accepted reports whether the offered item is now
// queued.
func (s *Service) Arrive(it *Item) (sheds []Shed, accepted bool) {
	s.stats.Arrivals++
	if it.Deadline == 0 {
		it.Deadline = s.pol.Deadline(it.Class, it.Arrived)
	}
	if s.overload && it.Class == Batch {
		s.shed(it, ShedOverload)
		return []Shed{{Item: it, Reason: ShedOverload}}, false
	}
	if len(s.q) >= s.pol.MaxQueue {
		w := s.worst()
		if w == nil || !later(w, it) {
			// Nothing queued is worse: the arrival itself is the victim.
			s.shed(it, ShedQueueFull)
			return []Shed{{Item: it, Reason: ShedQueueFull}}, false
		}
		heap.Remove(&s.q, w.pos)
		s.shed(w, ShedQueueFull)
		sheds = append(sheds, Shed{Item: w, Reason: ShedQueueFull})
	}
	s.seq++
	it.seq = s.seq
	heap.Push(&s.q, it)
	s.stats.Enqueued++
	if len(s.q) > s.stats.DepthHighWater {
		s.stats.DepthHighWater = len(s.q)
	}
	return sheds, true
}

// Pop removes and returns the earliest-deadline queued item, recording its
// admission sojourn. ok is false on an empty queue.
func (s *Service) Pop(now sim.Time) (it *Item, ok bool) {
	if len(s.q) == 0 {
		return nil, false
	}
	it = heap.Pop(&s.q).(*Item)
	s.stats.Admitted[it.Class]++
	s.observeSojourn(now - it.Arrived)
	return it, true
}

// Expire sheds every queued item whose deadline has lapsed (no-op unless
// Policy.ShedOverdue).
func (s *Service) Expire(now sim.Time) []Shed {
	if !s.pol.ShedOverdue {
		return nil
	}
	var out []Shed
	for len(s.q) > 0 && s.q[0].Deadline < now {
		it := heap.Pop(&s.q).(*Item)
		s.shed(it, ShedDeadline)
		out = append(out, Shed{Item: it, Reason: ShedDeadline})
	}
	return out
}

// Drain sheds everything still queued (service shutdown).
func (s *Service) Drain(now sim.Time) []Shed {
	var out []Shed
	for len(s.q) > 0 {
		it := heap.Pop(&s.q).(*Item)
		s.shed(it, ShedDrain)
		out = append(out, Shed{Item: it, Reason: ShedDrain})
	}
	return out
}

// EndEpoch recomputes the overload-control state from the sliding sojourn
// p95 and the queue depth, with hysteresis: on at a p95 breach (or a
// nearly-full queue), off once the p95 recovers below 3/4 of the bound and
// the queue has drained below half.
func (s *Service) EndEpoch(now sim.Time) {
	p95 := s.P95Sojourn()
	full := len(s.q)*10 >= s.pol.MaxQueue*9
	breach := s.pol.OverloadP95 > 0 && p95 > s.pol.OverloadP95
	if !s.overload {
		s.overload = breach || full
		return
	}
	recovered := len(s.q)*2 < s.pol.MaxQueue &&
		(s.pol.OverloadP95 <= 0 || p95 < s.pol.OverloadP95*3/4)
	if recovered {
		s.overload = false
	}
}

// P95Sojourn returns the nearest-rank p95 of the sliding admission-sojourn
// window (0 with no samples).
func (s *Service) P95Sojourn() sim.Time {
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	return s.sorted[(n*95+99)/100-1]
}

// observeSojourn records one admission sojourn (negative values clamp to
// 0). Once the window is full the ring's oldest sample leaves, and the
// sorted copy trades it for the new one in place: O(log W + W), no
// allocation (sorted never outgrows its preallocated capacity).
func (s *Service) observeSojourn(d sim.Time) {
	if d < 0 {
		d = 0
	}
	if len(s.sorted) == len(s.soj) {
		i, _ := slices.BinarySearch(s.sorted, s.soj[s.sojNext])
		s.sorted = slices.Delete(s.sorted, i, i+1)
	}
	s.soj[s.sojNext] = d
	s.sojNext = (s.sojNext + 1) % len(s.soj)
	i, _ := slices.BinarySearch(s.sorted, d)
	s.sorted = slices.Insert(s.sorted, i, d)
}

func (s *Service) shed(it *Item, reason ShedReason) {
	s.stats.Shed[reason]++
	s.stats.ShedByClass[it.Class]++
}

// worst returns the queued item that sorts last (latest deadline, then
// latest seq) — the displacement victim on overflow. Linear scan: the queue
// is small (hundreds) and overflow is the exceptional path.
func (s *Service) worst() *Item {
	var w *Item
	for _, it := range s.q {
		if w == nil || later(it, w) {
			w = it
		}
	}
	return w
}

// later reports whether a sorts strictly after b in deadline-then-FIFO
// order.
func later(a, b *Item) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline > b.Deadline
	}
	return a.seq > b.seq
}

// itemHeap is a min-heap on (Deadline, seq).
type itemHeap []*Item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].Deadline != h[j].Deadline {
		return h[i].Deadline < h[j].Deadline
	}
	return h[i].seq < h[j].seq
}
func (h itemHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *itemHeap) Push(x any) {
	it := x.(*Item)
	it.pos = len(*h)
	*h = append(*h, it)
}
func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.pos = -1
	*h = old[:n-1]
	return it
}
