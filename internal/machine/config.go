// Package machine implements the Shared-Nothing database machine model of
// the paper's Section 4: one control node (CN) with a single FCFS CPU that
// runs the scheduler and coordinates two-phase commitment, and NumNodes
// data-processing nodes (DPNs) that execute file-scanning cohorts in a
// round-robin discipline. Files are placed by fileID mod NumNodes and
// declustered over DD consecutive nodes; a step of cost C runs as DD
// parallel cohorts of C/DD objects each.
package machine

import (
	"fmt"

	"batchsched/internal/admit"
	"batchsched/internal/fault"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// Config carries the machine and measurement parameters (paper Table 1).
type Config struct {
	// NumNodes is the number of data-processing nodes.
	NumNodes int
	// NumFiles is the number of files (locking granules).
	NumFiles int
	// DD is the degree of declustering: each file is split over DD
	// consecutive nodes starting at its home node.
	DD int
	// MsgTime is the CN CPU time per message send or receive.
	MsgTime sim.Time
	// NetDelay is the network transfer delay (0 in the paper).
	NetDelay sim.Time
	// SOTTime is the CN CPU time of transaction startup.
	SOTTime sim.Time
	// COTTime is the CN CPU time of commitment coordination.
	COTTime sim.Time
	// ObjTime is the DPN service time for one object at DD = 1.
	ObjTime sim.Time
	// ArrivalRate is the Poisson arrival rate in transactions per second;
	// 0 disables the internal arrival process (transactions are then fed
	// with Submit).
	ArrivalRate float64
	// Arrivals overrides the arrival process (nil keeps the paper's
	// homogeneous Poisson at ArrivalRate, drawing byte-identical variates).
	// Stateful processes (workload.Trace, workload.Burst) must be fresh per
	// run, like schedulers.
	Arrivals workload.Arrivals
	// Service switches the machine into streaming-admission mode
	// (internal/admit): arrivals enter the bounded deadline-ordered admission
	// queue instead of going straight to the scheduler, an epoch loop drains
	// it into the policy's in-flight window, and backpressure sheds load.
	// The window bound comes from Service.MPL, so Config.MPL must be 0.
	// Requires an arrival process (Arrivals or ArrivalRate > 0).
	Service *admit.Policy
	// Duration is the simulated span (the paper runs 2,000,000 ms).
	Duration sim.Time
	// Warmup excludes early completions from the metrics (0 in the paper).
	Warmup sim.Time
	// MPL caps concurrently admitted transactions at the control node
	// itself; 0 means infinite (the paper's setting; C2PL+M implements its
	// limit inside the scheduler instead).
	MPL int
	// ChargeRetryCPU makes re-tried admissions pay the scheduler's
	// admission CPU on every retry instead of only on first attempt
	// (ablation knob; see DESIGN.md).
	ChargeRetryCPU bool
	// RunToCompletion is an ablation knob: data-processing nodes run each
	// cohort to completion (FCFS) instead of the paper's round-robin
	// interleave with a 1/DD-object quantum.
	RunToCompletion bool
	// NoWakeOnGrant is an ablation knob: policy-delayed lock requests are
	// retried only after commits, not after every grant.
	NoWakeOnGrant bool
	// RestartDelay holds an aborted transaction (optimistic validation
	// failure, 2PL deadlock victim, or fault-induced abort) back for this
	// long before it re-executes — the paper's "aborted requests are
	// submitted again after some delay". Zero restarts immediately.
	RestartDelay sim.Time
	// RestartJitter randomizes each restart hold-back to uniform
	// [0.5, 1.5) x RestartDelay (drawn from the machine RNG's "restart"
	// stream). A fixed delay can lock symmetric deadlock victims into a
	// periodic abort/re-acquire orbit that never drains — classic restart
	// livelock under strict 2PL — and randomized backoff is the standard
	// way to break it. Off by default; ignored when RestartDelay is zero.
	RestartJitter bool
	// Faults configures the fault injector (crashes, stragglers, lossy
	// messaging). The zero value is the paper's failure-free machine and
	// leaves the failure-free event sequence untouched.
	Faults fault.Config
}

// DefaultConfig returns the paper's Table-1 machine parameters with the
// Experiment-1 defaults for NumFiles and DD.
func DefaultConfig() Config {
	return Config{
		NumNodes:    8,
		NumFiles:    16,
		DD:          1,
		MsgTime:     2 * sim.Millisecond,
		NetDelay:    0,
		SOTTime:     2 * sim.Millisecond,
		COTTime:     7 * sim.Millisecond,
		ObjTime:     1000 * sim.Millisecond,
		ArrivalRate: 1.0,
		Duration:    2_000_000 * sim.Millisecond,
	}
}

// Validate checks the configuration for usability.
func (c Config) Validate() error {
	switch {
	case c.NumNodes <= 0:
		return fmt.Errorf("machine: NumNodes must be positive, got %d", c.NumNodes)
	case c.NumFiles <= 0:
		return fmt.Errorf("machine: NumFiles must be positive, got %d", c.NumFiles)
	case c.DD <= 0 || c.DD > c.NumNodes:
		return fmt.Errorf("machine: DD must be in [1, NumNodes], got %d", c.DD)
	case c.ObjTime <= 0:
		return fmt.Errorf("machine: ObjTime must be positive, got %v", c.ObjTime)
	case c.ObjTime < sim.Time(c.DD):
		// The round-robin quantum, 1/DD object, would round down to zero.
		return fmt.Errorf("machine: ObjTime must be at least DD microseconds, got %v at DD %d", c.ObjTime, c.DD)
	case c.Duration <= 0:
		return fmt.Errorf("machine: Duration must be positive, got %v", c.Duration)
	case c.ArrivalRate < 0:
		return fmt.Errorf("machine: ArrivalRate must be >= 0, got %g", c.ArrivalRate)
	case c.Warmup < 0 || c.Warmup >= c.Duration:
		return fmt.Errorf("machine: Warmup must be in [0, Duration), got %v", c.Warmup)
	case c.MsgTime < 0 || c.NetDelay < 0 || c.SOTTime < 0 || c.COTTime < 0:
		return fmt.Errorf("machine: negative CPU/network times")
	case c.MPL < 0:
		return fmt.Errorf("machine: MPL must be >= 0, got %d", c.MPL)
	case c.RestartDelay < 0:
		return fmt.Errorf("machine: RestartDelay must be >= 0, got %v", c.RestartDelay)
	}
	if c.Service != nil {
		if err := c.Service.Validate(); err != nil {
			return err
		}
		if c.MPL != 0 {
			return fmt.Errorf("machine: service mode takes its window from Service.MPL; Config.MPL must be 0, got %d", c.MPL)
		}
		if c.Arrivals == nil && c.ArrivalRate <= 0 {
			return fmt.Errorf("machine: service mode needs an arrival process (Arrivals or ArrivalRate > 0)")
		}
	}
	return c.Faults.Validate()
}
