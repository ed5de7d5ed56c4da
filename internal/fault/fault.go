// Package fault implements a deterministic, seed-driven fault injector for
// the Shared-Nothing machine model: data-processing-node crashes with
// exponentially distributed outages, straggler nodes whose service slows by
// a multiplier for a bounded window, and CN<->DPN message loss and delay
// with a timeout-and-retry path at the control node.
//
// The paper evaluates its schedulers on a failure-free machine; this package
// relaxes that assumption so the repro can ask "what does each scheduler's
// throughput and serializability look like when nodes fail?" (cf. Yao et
// al., "Scaling Distributed Transaction Processing and Recovery based on
// Dependency Logging", and DGCC — both in PAPERS.md).
//
// Every random draw comes from dedicated per-node streams derived from one
// "fault" stream of the run's master seed, so:
//
//   - a given seed reproduces the identical fault schedule across runs
//     (the differential tests rely on this), and
//   - the crash/straggler schedule is independent of the workload and the
//     scheduler under test — all schedulers face the same failures.
//
// With every knob zero the injector is inert: it draws nothing and schedules
// nothing, so failure-free runs reproduce the seed's event sequence exactly.
package fault

import (
	"fmt"

	"batchsched/internal/sim"
)

// Config carries the fault-injection knobs. The zero value disables every
// fault (the paper's failure-free machine).
type Config struct {
	// MTBF is the per-node mean time between crashes (exponential); 0
	// disables crashes.
	MTBF sim.Time
	// MTTR is the mean outage duration of a crash (exponential). Required
	// positive when MTBF > 0.
	MTTR sim.Time

	// StragglerMTBF is the per-node mean time between straggler episodes
	// (exponential); 0 disables stragglers.
	StragglerMTBF sim.Time
	// StragglerDuration is the fixed length of one straggler window.
	// Required positive when StragglerMTBF > 0.
	StragglerDuration sim.Time
	// StragglerFactor multiplies the node's service time during a window
	// (> 1). Required when StragglerMTBF > 0.
	StragglerFactor float64

	// MsgLoss is the probability that one CN<->DPN message (step dispatch
	// or completion reply) is lost; [0, 1). A lost message is detected by
	// the control node's timeout and the step is retried.
	MsgLoss float64
	// MsgDelay is the mean extra exponential network delay added to each
	// CN<->DPN message; 0 adds none.
	MsgDelay sim.Time
	// MsgTimeout is how long the control node waits before retrying a step
	// whose dispatch or reply was lost. Required positive when MsgLoss > 0.
	MsgTimeout sim.Time
	// MsgRetries bounds the retries per step; once exhausted the control
	// node aborts the transaction and resubmits it after the machine's
	// RestartDelay.
	MsgRetries int
}

// Enabled reports whether any fault dimension is active.
func (c Config) Enabled() bool {
	return c.MTBF > 0 || c.StragglerMTBF > 0 || c.MsgLoss > 0 || c.MsgDelay > 0
}

// Validate checks the knobs for consistency.
func (c Config) Validate() error {
	switch {
	case c.MTBF < 0 || c.MTTR < 0 || c.StragglerMTBF < 0 || c.StragglerDuration < 0 ||
		c.MsgDelay < 0 || c.MsgTimeout < 0:
		return fmt.Errorf("fault: negative durations")
	case c.MTBF > 0 && c.MTTR <= 0:
		return fmt.Errorf("fault: MTBF > 0 needs MTTR > 0")
	case c.StragglerMTBF > 0 && c.StragglerDuration <= 0:
		return fmt.Errorf("fault: StragglerMTBF > 0 needs StragglerDuration > 0")
	case c.StragglerMTBF > 0 && c.StragglerFactor <= 1:
		return fmt.Errorf("fault: StragglerFactor must be > 1, got %g", c.StragglerFactor)
	case c.MsgLoss < 0 || c.MsgLoss >= 1:
		return fmt.Errorf("fault: MsgLoss must be in [0, 1), got %g", c.MsgLoss)
	case c.MsgLoss > 0 && c.MsgTimeout <= 0:
		return fmt.Errorf("fault: MsgLoss > 0 needs MsgTimeout > 0")
	case c.MsgRetries < 0:
		return fmt.Errorf("fault: MsgRetries must be >= 0, got %d", c.MsgRetries)
	}
	return nil
}

// Hooks are the machine-side callbacks the injector drives. All fire as
// simulation events; now is the virtual time of the fault.
type Hooks struct {
	// Crash takes the node down; its resident cohorts are lost.
	Crash func(node int, now sim.Time)
	// Restore brings the node back (empty, serving again).
	Restore func(node int, now sim.Time)
	// SlowStart applies the straggler service-time multiplier to the node.
	SlowStart func(node int, factor float64, now sim.Time)
	// SlowEnd restores the node's nominal service time.
	SlowEnd func(node int, now sim.Time)
}

// Injector schedules the fault processes of one run. Create with
// NewInjector, call Start once when the run begins.
type Injector struct {
	cfg      Config
	eng      *sim.Engine
	h        Hooks
	crashRNG []*sim.RNG
	slowRNG  []*sim.RNG
	msgRNG   *sim.RNG
}

// NewInjector builds an injector for numNodes data-processing nodes. rng
// must be a stream dedicated to fault draws (the machine derives it as
// Stream("fault") of the run's master seed); per-node and per-dimension
// substreams are split off it so dimensions never perturb each other.
func NewInjector(cfg Config, numNodes int, eng *sim.Engine, rng *sim.RNG, h Hooks) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numNodes <= 0 {
		return nil, fmt.Errorf("fault: numNodes must be positive, got %d", numNodes)
	}
	inj := &Injector{cfg: cfg, eng: eng, h: h, msgRNG: rng.Stream("msg")}
	inj.crashRNG = make([]*sim.RNG, numNodes)
	inj.slowRNG = make([]*sim.RNG, numNodes)
	for n := 0; n < numNodes; n++ {
		inj.crashRNG[n] = rng.Stream(fmt.Sprintf("crash/%d", n))
		inj.slowRNG[n] = rng.Stream(fmt.Sprintf("slow/%d", n))
	}
	return inj, nil
}

// Start schedules the per-node crash and straggler processes. With the
// corresponding knobs zero it schedules nothing.
func (i *Injector) Start() {
	if i.cfg.MTBF > 0 {
		for n := range i.crashRNG {
			i.scheduleCrash(n)
		}
	}
	if i.cfg.StragglerMTBF > 0 {
		for n := range i.slowRNG {
			i.scheduleSlow(n)
		}
	}
}

// scheduleCrash books node n's next crash/restore pair. Both variates are
// drawn up front from the node's dedicated stream, so the whole schedule is
// fixed by the seed alone.
func (i *Injector) scheduleCrash(n int) {
	r := i.crashRNG[n]
	gap := r.ExpTime(1.0 / i.cfg.MTBF.Seconds())
	outage := r.ExpTime(1.0 / i.cfg.MTTR.Seconds())
	i.eng.Schedule(gap, func(now sim.Time) {
		i.h.Crash(n, now)
		i.eng.Schedule(outage, func(now sim.Time) {
			i.h.Restore(n, now)
			i.scheduleCrash(n)
		})
	})
}

// scheduleSlow books node n's next straggler window (fixed length, random
// start).
func (i *Injector) scheduleSlow(n int) {
	r := i.slowRNG[n]
	gap := r.ExpTime(1.0 / i.cfg.StragglerMTBF.Seconds())
	i.eng.Schedule(gap, func(now sim.Time) {
		i.h.SlowStart(n, i.cfg.StragglerFactor, now)
		i.eng.Schedule(i.cfg.StragglerDuration, func(now sim.Time) {
			i.h.SlowEnd(n, now)
			i.scheduleSlow(n)
		})
	})
}

// MsgLost draws whether one CN<->DPN message is lost. It draws nothing when
// MsgLoss is zero.
func (i *Injector) MsgLost() bool {
	if i.cfg.MsgLoss <= 0 {
		return false
	}
	return i.msgRNG.Float64() < i.cfg.MsgLoss
}

// MsgExtraDelay draws the extra network delay of one message (zero without
// drawing when MsgDelay is disabled).
func (i *Injector) MsgExtraDelay() sim.Time {
	if i.cfg.MsgDelay <= 0 {
		return 0
	}
	return i.msgRNG.ExpTime(1.0 / i.cfg.MsgDelay.Seconds())
}

// Timeout returns the control node's retry timeout.
func (i *Injector) Timeout() sim.Time { return i.cfg.MsgTimeout }

// Retries returns the per-step retry bound.
func (i *Injector) Retries() int { return i.cfg.MsgRetries }
