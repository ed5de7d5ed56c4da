// Package metrics collects and summarizes the performance measures the
// paper reports: mean response time (arrival to completion), throughput in
// completed transactions per second (TPS), and the counters needed to
// explain them (blocks, delays, restarts, admission rejections, resource
// utilization).
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"batchsched/internal/sim"
	"batchsched/internal/stats"
)

// Collector accumulates raw observations during one simulation run. The
// zero value is not usable; call NewCollector.
type Collector struct {
	warmup sim.Time

	arrivals    int
	completions int
	rts         []sim.Time

	blocks           int
	delays           int
	restarts         int
	admissionRejects int

	cnBusy  sim.Time
	dpnBusy []sim.Time

	grantedRequests int
	stepsExecuted   int

	// Fault accounting (all zero on the failure-free path).
	crashes     int
	crashAborts int
	msgLost     int
	msgRetries  int
	msgAborts   int
	stragglers  int

	downNodes int      // nodes currently down
	downSince sim.Time // last down-count transition
	downTime  sim.Time // integral of downNodes over time (node-time)

	degradedCount       int // active fault conditions (crashes + straggler windows)
	degradedSince       sim.Time
	degradedTime        sim.Time
	completionsDegraded int

	// Service-mode accounting (all zero on closed-batch runs).
	sheds         int
	shedQueueFull int
	shedDeadline  int
	shedOverload  int
	evictions     int
}

// NewCollector returns a collector for a machine with numNodes
// data-processing nodes. Completions before warmup are not counted
// (warmup 0 reproduces the paper, which measures the whole window).
func NewCollector(numNodes int, warmup sim.Time) *Collector {
	return &Collector{warmup: warmup, dpnBusy: make([]sim.Time, numNodes)}
}

// Arrival records a transaction arriving at the control node.
func (c *Collector) Arrival(now sim.Time) {
	if now >= c.warmup {
		c.arrivals++
	}
}

// Completion records a transaction completing with the given response time.
func (c *Collector) Completion(now, rt sim.Time) {
	if now < c.warmup {
		return
	}
	c.completions++
	c.rts = append(c.rts, rt)
	if c.degradedCount > 0 {
		c.completionsDegraded++
	}
}

// Block, Delay, Restart and AdmissionReject count scheduler decisions.
func (c *Collector) Block()           { c.blocks++ }
func (c *Collector) Delay()           { c.delays++ }
func (c *Collector) Restart()         { c.restarts++ }
func (c *Collector) AdmissionReject() { c.admissionRejects++ }

// Granted counts granted lock requests; StepExecuted counts finished steps.
func (c *Collector) Granted()      { c.grantedRequests++ }
func (c *Collector) StepExecuted() { c.stepsExecuted++ }

// CNBusy accumulates control-node CPU busy time.
func (c *Collector) CNBusy(d sim.Time) { c.cnBusy += d }

// NodeDown records a data-processing node crashing at now.
func (c *Collector) NodeDown(now sim.Time) {
	c.crashes++
	c.downTime += sim.Time(c.downNodes) * (now - c.downSince)
	c.downNodes++
	c.downSince = now
	c.degradeOn(now)
}

// NodeUp records a crashed node restoring at now.
func (c *Collector) NodeUp(now sim.Time) {
	c.downTime += sim.Time(c.downNodes) * (now - c.downSince)
	c.downNodes--
	c.downSince = now
	c.degradeOff(now)
}

// StragglerStart and StragglerEnd bracket one straggler window.
func (c *Collector) StragglerStart(now sim.Time) { c.stragglers++; c.degradeOn(now) }
func (c *Collector) StragglerEnd(now sim.Time)   { c.degradeOff(now) }

// degradeOn/degradeOff maintain the degraded-interval clock: the machine is
// degraded while at least one fault condition (down node or straggler
// window) is active.
func (c *Collector) degradeOn(now sim.Time) {
	if c.degradedCount == 0 {
		c.degradedSince = now
	}
	c.degradedCount++
}

func (c *Collector) degradeOff(now sim.Time) {
	c.degradedCount--
	if c.degradedCount == 0 {
		c.degradedTime += now - c.degradedSince
	}
}

// ShedQueueFull, ShedDeadline, ShedOverload and ShedDrain count admission
// sheds per reason; Evicted counts in-flight overload evictions. All are
// service-mode events (internal/admit).
func (c *Collector) ShedQueueFull() { c.sheds++; c.shedQueueFull++ }
func (c *Collector) ShedDeadline()  { c.sheds++; c.shedDeadline++ }
func (c *Collector) ShedOverload()  { c.sheds++; c.shedOverload++ }
func (c *Collector) ShedDrain()     { c.sheds++ }
func (c *Collector) Evicted()       { c.evictions++ }

// CrashAbort, MsgLost, MsgRetry and MsgAbort count fault consequences.
func (c *Collector) CrashAbort() { c.crashAborts++ }
func (c *Collector) MsgLost()    { c.msgLost++ }
func (c *Collector) MsgRetry()   { c.msgRetries++ }
func (c *Collector) MsgAbort()   { c.msgAborts++ }

// DPNBusy accumulates busy time for one data-processing node.
func (c *Collector) DPNBusy(node int, d sim.Time) { c.dpnBusy[node] += d }

// CNBusyTime returns the control-node busy time accumulated so far — the
// observability layer samples it into a utilization time-series.
func (c *Collector) CNBusyTime() sim.Time { return c.cnBusy }

// DPNBusyTime returns one node's busy time accumulated so far.
func (c *Collector) DPNBusyTime(node int) sim.Time { return c.dpnBusy[node] }

// Summary is the digested result of one run.
type Summary struct {
	// Window is the measured span (run duration minus warmup).
	Window sim.Time
	// Arrivals and Completions are transaction counts inside the window.
	Arrivals    int
	Completions int
	// MeanRT is the mean response time of completed transactions.
	MeanRT sim.Time
	// P50RT, P90RT and MaxRT are response-time percentiles (nearest-rank,
	// the original reproduction metric).
	P50RT, P90RT, MaxRT sim.Time
	// P95RT and P99RT are interpolated tail percentiles (stats.Quantile);
	// the replicated grids report P95RT alongside MeanRT.
	P95RT, P99RT sim.Time
	// TPS is Completions divided by the window in seconds.
	TPS float64
	// Blocks, Delays, Restarts and AdmissionRejects count scheduler events
	// over the whole run.
	Blocks, Delays, Restarts, AdmissionRejects int
	// GrantedRequests and StepsExecuted count execution progress.
	GrantedRequests, StepsExecuted int
	// CNUtilization is control-node CPU busy fraction.
	CNUtilization float64
	// DPNUtilization is the mean data-processing-node busy fraction.
	DPNUtilization float64
	// PerDPNUtilization is each node's busy fraction.
	PerDPNUtilization []float64
	// Crashes, CrashAborts, MsgLost, MsgRetries, MsgAborts and
	// StragglerEpisodes count fault-injection events (zero, and omitted
	// from JSON, on the failure-free path).
	Crashes           int `json:",omitempty"`
	CrashAborts       int `json:",omitempty"`
	MsgLost           int `json:",omitempty"`
	MsgRetries        int `json:",omitempty"`
	MsgAborts         int `json:",omitempty"`
	StragglerEpisodes int `json:",omitempty"`
	// DownTime is the integral of down nodes over the run (node-time):
	// two nodes down for 5 s each contribute 10 s.
	DownTime sim.Time `json:",omitempty"`
	// DegradedTime is wall-clock time with at least one fault condition
	// (down node or straggler window) active; CompletionsDegraded and
	// DegradedTPS measure throughput inside those intervals.
	DegradedTime        sim.Time `json:",omitempty"`
	CompletionsDegraded int      `json:",omitempty"`
	DegradedTPS         float64  `json:",omitempty"`
	// Sheds (with its per-reason breakdown; drains are the remainder) and
	// Evictions count streaming-admission backpressure events (zero, and
	// omitted, on closed-batch runs; see internal/admit).
	Sheds         int `json:",omitempty"`
	ShedQueueFull int `json:",omitempty"`
	ShedDeadline  int `json:",omitempty"`
	ShedOverload  int `json:",omitempty"`
	Evictions     int `json:",omitempty"`
}

// Availability is the fraction of node-time the machine's data-processing
// nodes were up: 1 - DownTime/(NumNodes * Window). It is 1 on the
// failure-free path and on averaged summaries that dropped the per-node
// breakdown.
func (s Summary) Availability() float64 {
	n := len(s.PerDPNUtilization)
	if n == 0 || s.Window <= 0 {
		return 1
	}
	return 1 - float64(s.DownTime)/float64(sim.Time(n)*s.Window)
}

// Summarize digests the collector at the end of a run of the given total
// duration.
func (c *Collector) Summarize(duration sim.Time) Summary {
	window := duration - c.warmup
	s := Summary{
		Window:           window,
		Arrivals:         c.arrivals,
		Completions:      c.completions,
		Blocks:           c.blocks,
		Delays:           c.delays,
		Restarts:         c.restarts,
		AdmissionRejects: c.admissionRejects,
		GrantedRequests:  c.grantedRequests,
		StepsExecuted:    c.stepsExecuted,

		Crashes:             c.crashes,
		CrashAborts:         c.crashAborts,
		MsgLost:             c.msgLost,
		MsgRetries:          c.msgRetries,
		MsgAborts:           c.msgAborts,
		StragglerEpisodes:   c.stragglers,
		CompletionsDegraded: c.completionsDegraded,

		Sheds:         c.sheds,
		ShedQueueFull: c.shedQueueFull,
		ShedDeadline:  c.shedDeadline,
		ShedOverload:  c.shedOverload,
		Evictions:     c.evictions,
	}
	// Flush the open down/degraded intervals to the end of the run without
	// mutating the collector (Summarize stays idempotent).
	s.DownTime = c.downTime + sim.Time(c.downNodes)*(duration-c.downSince)
	s.DegradedTime = c.degradedTime
	if c.degradedCount > 0 {
		s.DegradedTime += duration - c.degradedSince
	}
	if s.DegradedTime > 0 {
		s.DegradedTPS = float64(c.completionsDegraded) / s.DegradedTime.Seconds()
	}
	if window <= 0 {
		return s
	}
	if len(c.rts) > 0 {
		sorted := append([]sim.Time(nil), c.rts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var sum sim.Time
		for _, rt := range sorted {
			sum += rt
		}
		s.MeanRT = sum / sim.Time(len(sorted))
		s.P50RT = percentile(sorted, 0.50)
		s.P90RT = percentile(sorted, 0.90)
		s.MaxRT = sorted[len(sorted)-1]
		secs := make([]float64, len(sorted))
		for i, rt := range sorted {
			secs[i] = rt.Seconds()
		}
		s.P95RT = sim.FromSeconds(stats.QuantileSorted(secs, 0.95))
		s.P99RT = sim.FromSeconds(stats.QuantileSorted(secs, 0.99))
	}
	s.TPS = float64(c.completions) / window.Seconds()
	s.CNUtilization = frac(c.cnBusy, duration)
	s.PerDPNUtilization = make([]float64, len(c.dpnBusy))
	total := 0.0
	for i, b := range c.dpnBusy {
		s.PerDPNUtilization[i] = frac(b, duration)
		total += s.PerDPNUtilization[i]
	}
	if len(c.dpnBusy) > 0 {
		s.DPNUtilization = total / float64(len(c.dpnBusy))
	}
	return s
}

func percentile(sorted []sim.Time, p float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func frac(busy, total sim.Time) float64 {
	if total <= 0 {
		return 0
	}
	return float64(busy) / float64(total)
}

// String renders the headline numbers on one line.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "completions=%d tps=%.3f meanRT=%.1fs dpnUtil=%.0f%% cnUtil=%.0f%%",
		s.Completions, s.TPS, s.MeanRT.Seconds(), 100*s.DPNUtilization, 100*s.CNUtilization)
	if s.Restarts > 0 {
		fmt.Fprintf(&b, " restarts=%d", s.Restarts)
	}
	if s.Crashes > 0 {
		fmt.Fprintf(&b, " crashes=%d availability=%.4f", s.Crashes, s.Availability())
	}
	if s.MsgLost > 0 {
		fmt.Fprintf(&b, " msgLost=%d msgAborts=%d", s.MsgLost, s.MsgAborts)
	}
	return b.String()
}
