package live

import (
	"fmt"
	"time"

	"batchsched/internal/admit"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// Service mode: the live backend as an open system. An arrivals goroutine
// draws (gap, steps, class) from the same seed-deterministic RNG streams the
// simulator uses ("arrivals", "workload", "class" — so the offered sequence
// is reproducible; wall-clock interleaving decides how it lands), sleeps the
// gaps in wall time, and feeds the CN loop through a channel. The CN core
// runs the simulator's service mode (engine.CN's epoch body over the same
// admit.Service): a wall-clock ticker marks epoch boundaries (expiry,
// overload control, optional eviction, window refill), completions free
// window slots, and at the configured duration the arrivals goroutine
// closes its channel, the queue is drained (ShedDrain), and the loop exits
// once the window empties — every DPN goroutine, the arrivals goroutine and
// any restart timers included.

// svcArrival is one drawn arrival in flight from the arrivals goroutine to
// the CN.
type svcArrival struct {
	steps []model.Step
	class admit.Class
}

// RunService executes an open-stream service run: arrivals from arr, bodies
// from gen, for cfg.ServiceDuration of wall time. Requires cfg.Service.
// Call instead of Run (after Submit-free setup); returns the run summary
// over the full wall window.
func (b *Backend) RunService(gen workload.Generator, arr workload.Arrivals, seed int64) metrics.Summary {
	if b.ran {
		panic("live: RunService after Run")
	}
	if b.cfg.Service == nil {
		panic("live: RunService needs Config.Service")
	}
	if gen == nil || arr == nil {
		panic("live: RunService needs a generator and an arrival process")
	}
	b.ran = true
	svc := b.cn.Service()
	// At most MPL transactions are admitted at once.
	b.start(b.cfg.Service.MPL)

	// The arrivals goroutine: deterministic draw sequence, wall-clock gaps.
	// It owns arrivalQ's close; stop unblocks it if the CN bails early.
	arrivalQ := make(chan svcArrival, b.cfg.Service.MaxQueue+1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(arrivalQ)
		rng := sim.NewRNG(seed)
		rngA := rng.Stream("arrivals")
		rngW := rng.Stream("workload")
		rngC := rng.Stream("class")
		gapTimer := time.NewTimer(0)
		if !gapTimer.Stop() {
			<-gapTimer.C
		}
		start := time.Now()
		for {
			gap := arr.Next(b.clk.Now(), rngA)
			gapTimer.Reset(time.Duration(gap) * time.Microsecond)
			select {
			case <-gapTimer.C:
			case <-stop:
				gapTimer.Stop()
				return
			}
			if time.Since(start) >= b.cfg.ServiceDuration {
				return
			}
			a := svcArrival{steps: gen.Steps(rngW), class: b.cfg.Service.PickClass(rngC)}
			select {
			case arrivalQ <- a:
			case <-stop:
				return
			}
		}
	}()

	epoch := time.NewTicker(time.Duration(b.cfg.Service.Epoch) * time.Microsecond)
	defer epoch.Stop()
	deadline := time.NewTimer(b.cfg.ServiceDuration + b.cfg.Deadline)
	defer deadline.Stop()

	for arrivalsOpen := true; arrivalsOpen || b.cn.Active() > 0 || b.restartPending > 0 || svc.Depth() > 0; {
		select {
		case a, ok := <-arrivalQ:
			t0 := time.Now()
			if ok {
				b.nextID++
				b.cn.Arrive(model.NewTxn(b.nextID, b.clk.Now(), a.steps), a.class)
			} else {
				arrivalsOpen = false
				arrivalQ = nil
				b.cn.CloseService(b.clk.Now())
			}
			b.serve(t0)
		case c := <-b.comp:
			t0 := time.Now()
			b.handleCompletion(c)
			b.serve(t0)
		case e := <-b.restartQ:
			t0 := time.Now()
			b.restartPending--
			b.cn.Readmit(e)
			b.serve(t0)
		case <-epoch.C:
			t0 := time.Now()
			b.cn.Epoch(b.clk.Now())
			b.serve(t0)
		case <-deadline.C:
			b.err = fmt.Errorf("live: service run stalled %v past its %v duration: active=%d queue=%d restarting=%d: %s",
				b.cfg.Deadline, b.cfg.ServiceDuration, b.cn.Active(), svc.Depth(), b.restartPending, b.cn.WaitReport())
		}
		if b.err != nil {
			break
		}
		b.sample()
	}
	return b.finish()
}

// SetEpochHook installs a per-epoch callback (service mode only). The hook
// runs on the CN goroutine inside the epoch event. Call before RunService.
func (b *Backend) SetEpochHook(h func(admit.EpochStats)) { b.cn.SetEpochHook(h) }

// Service exposes the admission service (nil before RunService / outside
// service mode).
func (b *Backend) Service() *admit.Service { return b.cn.Service() }
