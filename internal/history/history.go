// Package history records the read/write history of a simulation run and
// checks conflict-serializability: the serialization graph over committed
// transactions (an edge Ti -> Tj for each pair of conflicting operations on
// a file where Ti's came first) must be acyclic. A Recorder is an
// observer of the control node's event stream, so a test attaches one to a
// backend with SetObserver and asserts the invariant afterwards. NODC
// intentionally violates it; every real scheduler must satisfy it.
package history

import (
	"fmt"
	"sort"

	"batchsched/internal/engine"
	"batchsched/internal/model"
	"batchsched/internal/sim"
)

// op is one executed step: an access to a file at a point in virtual time.
type op struct {
	txn   int64
	file  model.FileID
	write bool
	at    sim.Time
	seq   int // tie-break for identical timestamps (recording order)
}

// Recorder accumulates the history of one run.
type Recorder struct {
	live      map[int64][]op // uncommitted attempts, discarded on restart
	committed []op
	commits   int
	restarts  int
	seq       int
	lastAt    sim.Time // high-water mark for monotone clamping
	monotone  bool
	deferred  bool
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{live: make(map[int64][]op)}
}

// NewDeferredWrites returns a recorder for deferred-update concurrency
// control (the optimistic scheduler): writes are buffered during execution
// and installed atomically at commit, so the recorder re-stamps a
// transaction's write operations to its commit time. Reads keep their
// execution times. Without this, the checker would see an optimistic
// transaction's buffered writes as in-place updates and report phantom
// conflicts.
func NewDeferredWrites() *Recorder {
	r := New()
	r.deferred = true
	return r
}

// SetMonotone makes the recorder clamp operation timestamps nondecreasing
// in recording order. Wall-clock sources (the live backend) must enable
// this: the serialization-graph checker orders same-file operations by
// (at, seq), and a clock reading behind an earlier one would re-order
// operations against the real execution order, fabricating (or hiding)
// conflicts. Clamping to the recording-order high-water mark is sound
// there because the control node records events in its processing order,
// which respects the conflict order — a conflicting step cannot run before
// the CN has processed its predecessor's release. Off by default: a
// virtual-time recorder may legitimately be fed per-transaction op batches
// whose stamps interleave.
func (r *Recorder) SetMonotone(on bool) { r.monotone = on }

func (r *Recorder) clamp(at sim.Time) sim.Time {
	if !r.monotone {
		return at
	}
	if at < r.lastAt {
		return r.lastAt
	}
	r.lastAt = at
	return at
}

// Event records a finished step as an operation of the transaction's
// current attempt, freezes the attempt's operations into the history when
// it commits, and discards them when it rolls back. Under deferred-update
// recording, write operations are re-stamped to the commit time.
func (r *Recorder) Event(ev engine.Event) {
	t := ev.Txn
	switch ev.Kind {
	case engine.EvStepDone:
		st := t.Steps[ev.Step]
		r.seq++
		r.live[t.ID] = append(r.live[t.ID], op{
			txn: t.ID, file: st.File, write: st.Write, at: r.clamp(ev.At), seq: r.seq,
		})
	case engine.EvCommit:
		ops := r.live[t.ID]
		if r.deferred {
			at := r.clamp(ev.At)
			for i := range ops {
				if ops[i].write {
					r.seq++
					ops[i].at = at
					ops[i].seq = r.seq
				}
			}
		}
		r.committed = append(r.committed, ops...)
		delete(r.live, t.ID)
		r.commits++
	case engine.EvAbort:
		delete(r.live, t.ID)
		r.restarts++
	}
}

// Commits returns the number of committed transactions recorded.
func (r *Recorder) Commits() int { return r.commits }

// Restarts returns the number of restarts recorded.
func (r *Recorder) Restarts() int { return r.restarts }

// CheckSerializable verifies conflict-serializability of the committed
// history and returns a descriptive error when a precedence cycle exists.
func (r *Recorder) CheckSerializable() error {
	// Group ops per file, ordered by time (seq tie-break).
	perFile := make(map[model.FileID][]op)
	for _, o := range r.committed {
		perFile[o.file] = append(perFile[o.file], o)
	}
	succ := make(map[int64]map[int64]bool)
	addEdge := func(a, b int64) {
		if a == b {
			return
		}
		if succ[a] == nil {
			succ[a] = make(map[int64]bool)
		}
		succ[a][b] = true
	}
	for _, ops := range perFile {
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].at != ops[j].at {
				return ops[i].at < ops[j].at
			}
			return ops[i].seq < ops[j].seq
		})
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				if ops[i].write || ops[j].write {
					addEdge(ops[i].txn, ops[j].txn)
				}
			}
		}
	}
	// Cycle detection (iterative three-color DFS).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int64]int)
	var nodes []int64
	for a := range succ {
		nodes = append(nodes, a)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var visit func(v int64) error
	visit = func(v int64) error {
		color[v] = gray
		var out []int64
		for u := range succ[v] {
			out = append(out, u)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		for _, u := range out {
			switch color[u] {
			case gray:
				return fmt.Errorf("history: serialization cycle through T%d and T%d", v, u)
			case white:
				if err := visit(u); err != nil {
					return err
				}
			}
		}
		color[v] = black
		return nil
	}
	for _, v := range nodes {
		if color[v] == white {
			if err := visit(v); err != nil {
				return err
			}
		}
	}
	return nil
}
