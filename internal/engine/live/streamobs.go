package live

import (
	"batchsched/internal/engine"
	"batchsched/internal/obs/stream"
	"batchsched/internal/sched"
)

// streamObserver holds the live backend's streaming instruments (SetStream)
// and updates the decision, restart, commit and shed ones from the CN's
// event stream; the backend refreshes the gauges itself. The service-mode
// ones stay nil outside service mode.
type streamObserver struct {
	cn                                       *engine.CN
	grants, blocks, restarts, commits, sheds *stream.Rate
	rt                                       *stream.Sketch
	active, waiting, queueDepth, sojournUS   *stream.Gauge
}

// Event counts decisions, restarts, commits and sheds on the wall clock.
func (s *streamObserver) Event(ev engine.Event) {
	if ev.CountsRestart() {
		s.restarts.Add(ev.At, 1)
	}
	switch ev.Kind {
	case engine.EvRequest:
		switch ev.Decision {
		case sched.Grant:
			s.grants.Add(ev.At, 1)
		case sched.Block:
			s.blocks.Add(ev.At, 1)
		}
	case engine.EvCommit:
		s.commits.Add(ev.At, 1)
		rt := max(ev.At-ev.Txn.Arrival, 0)
		s.rt.Observe(float64(rt) / 1e6) // sim.Time microseconds -> seconds
		s.active.Set(int64(s.cn.Active()))
	case engine.EvShed:
		s.sheds.Add(ev.At, 1)
	}
}
