package live

import (
	"time"

	"batchsched/internal/admit"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// Service mode: the live backend as an open system, run by the same CN loop
// as a closed batch (loop). The CN goroutine draws each arrival's gap, steps
// and class from the seed-deterministic RNG streams the simulator uses
// ("arrivals", "workload", "class"), so the offered sequence is
// reproducible while wall-clock interleaving decides how it lands. Each
// arrival is due at the previous one's due time plus its gap: a busy CN
// delays an arrival's handling but not the offered schedule. The CN core
// runs the simulator's service mode (engine.CN's epoch body over the same
// admit.Service): a wall-clock ticker marks epoch boundaries (expiry,
// overload control, optional eviction, window refill), completions free
// window slots, and the first arrival due at or past the configured
// duration closes arrivals instead: the queue is drained (ShedDrain), and
// the loop exits once the window empties, stopping every DPN goroutine.

// arrivalSource is a service run's arrival stream: the due time of the next
// arrival and the draws that make it.
type arrivalSource struct {
	gen              workload.Generator
	arr              workload.Arrivals
	rngA, rngW, rngC *sim.RNG
	due, end         sim.Time // next arrival, service close (wall clock)
}

// book draws the next gap and moves the due time past it.
func (s *arrivalSource) book() { s.due += s.arr.Next(s.due, s.rngA) }

// wait is the wall time from now until the next arrival is due (negative
// when it is overdue, which fires a timer at once).
func (s *arrivalSource) wait(now sim.Time) time.Duration {
	return time.Duration(s.due-now) * time.Microsecond
}

// arrive handles the arrival due now. Past the service duration it closes
// arrivals and reports false. Otherwise it draws the arrival's steps and
// class, books the next arrival, and hands the transaction to the CN; the
// draw is not CN busy time.
func (b *Backend) arrive(src *arrivalSource) bool {
	if src.due >= src.end {
		t0 := time.Now()
		b.cn.CloseArrivals()
		b.serve(t0)
		return false
	}
	steps, class := src.gen.Steps(src.rngW), b.cfg.Service.PickClass(src.rngC)
	src.book()
	t0 := time.Now()
	b.nextID++
	b.cn.Arrive(model.NewTxn(b.nextID, b.clk.Now(), steps), class)
	b.serve(t0)
	return true
}

// RunService executes an open-stream service run: arrivals from arr, bodies
// from gen, for cfg.ServiceDuration of wall time. Requires cfg.Service.
// Call instead of Run (after Submit-free setup); returns the run summary
// over the full wall window.
func (b *Backend) RunService(gen workload.Generator, arr workload.Arrivals, seed int64) metrics.Summary {
	if b.cfg.Service == nil {
		panic("live: RunService needs Config.Service")
	}
	if gen == nil || arr == nil {
		panic("live: RunService needs a generator and an arrival process")
	}
	// At most MPL transactions are admitted at once.
	b.start(b.cfg.Service.MPL)

	rng := sim.NewRNG(seed)
	now := b.clk.Now()
	src := &arrivalSource{
		gen: gen, arr: arr,
		rngA: rng.Stream("arrivals"), rngW: rng.Stream("workload"), rngC: rng.Stream("class"),
		due: now, end: now + sim.Time(b.cfg.ServiceDuration/time.Microsecond),
	}
	src.book()
	return b.loop(src, b.cfg.ServiceDuration+b.cfg.Deadline)
}

// SetEpochHook installs a per-epoch callback (service mode only). The hook
// runs on the CN goroutine inside the epoch event. Call before RunService.
func (b *Backend) SetEpochHook(h func(admit.EpochStats)) { b.cn.SetEpochHook(h) }

// Service exposes the admission service (nil before RunService / outside
// service mode).
func (b *Backend) Service() *admit.Service { return b.cn.Service() }
