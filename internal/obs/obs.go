// Package obs is the observability layer: a recorder of spans (nested
// intervals of a run's clock), one metric registry (counters, gauges and
// fixed-bucket histograms, see Registry) sampled into time-series on an
// interval, and a scheduler decision audit log. Exporters render the
// recording as Chrome trace_event JSON (loadable in chrome://tracing and
// Perfetto), CSV time-series, a self-contained HTML report and Prometheus
// text.
//
// The clock is an input: the simulator drives everything from its virtual
// clock, so two runs with the same seed produce byte-identical output, and
// the live backend from the wall clock. A nil *Observer is the disabled
// layer: every method is nil-receiver safe and returns immediately, which
// keeps the instrumented hot paths allocation-free when observability is
// off.
//
// Naming conventions consumed by the HTML exporter: gauges named
// "<resource>_busy_ms" are treated as cumulative busy-time series and
// differenced into utilization timelines; all other gauges are plotted raw.
package obs

import (
	"sync/atomic"

	"batchsched/internal/sim"
)

// SpanID refers to a recorded span; the zero SpanID is "no span" and is what
// a disabled observer returns, so callers can thread ids around untested.
type SpanID int32

// Span is one interval of virtual time: a transaction lifecycle phase, a
// cohort's residency at a data-processing node, or one control-node job.
type Span struct {
	// Name is the phase name ("txn", "lock-wait", "execute", "cohort",
	// "cn:request", ...).
	Name string
	// Cat is the category: "txn" (transaction lifecycle), "io" (DPN
	// cohort service), "cn" (control-node jobs).
	Cat string
	// Txn is the owning transaction id (0 when none).
	Txn int64
	// Node is the data-processing node (-1 when not node-scoped).
	Node int32
	// Extra carries a small per-span integer: the step index of an
	// execute/cohort span; -1 when unused.
	Extra int32
	// Parent is the enclosing span (0 for roots).
	Parent SpanID
	// Start and End bound the span on the virtual clock. End is -1 while
	// the span is open; Finish closes leftovers at the horizon.
	Start, End sim.Time
}

// Duration returns the span's length (0 for still-open spans).
func (s Span) Duration() sim.Time {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Observer is the recording half of the layer. Create with New or
// NewMetricsOnly; a nil Observer is the disabled layer (all methods no-op).
type Observer struct {
	spans []Span
	reg   *Registry
	audit Audit
	// metricsOnly keeps the registry's current values and nothing that
	// grows with the run: no spans, no audit, no sampled rows.
	metricsOnly bool

	// cols are the sampled columns, frozen by the first sample; rows holds
	// one [t_ms, cols...] row per sample.
	cols []column
	rows [][]float64

	// interval is the metrics sampling period (SetSampleInterval).
	interval sim.Time
	sampling bool
	lastTick sim.Time

	// clampedSpanEnds and clampedSamples count monotone-clamp events: span
	// closes and metric samples whose clock reading ran backwards and had to
	// be clamped (see End and sample). Both stay zero under virtual time;
	// non-zero values measure wall-clock regression in the live backend.
	// Atomic so the scrape endpoint can read them from another goroutine.
	clampedSpanEnds atomic.Int64
	clampedSamples  atomic.Int64
}

// DefaultSampleInterval is the metrics sampling period of a fresh Observer.
const DefaultSampleInterval = 1000 * sim.Millisecond

// New returns an observer that records spans, metrics and the decision
// audit, sampling metrics at the default interval.
func New() *Observer {
	return &Observer{reg: NewRegistry(), interval: DefaultSampleInterval}
}

// NewMetricsOnly returns an observer that keeps only the registry's
// current values, refreshed at the default interval: no spans, no audit
// and no sampled rows, so its memory does not grow with the run. It is the
// telemetry of long-running services.
func NewMetricsOnly() *Observer {
	o := New()
	o.metricsOnly = true
	return o
}

// Metrics returns the observer's metric registry (nil when disabled).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Enabled reports whether the observer records anything (false on nil).
func (o *Observer) Enabled() bool { return o != nil }

// SetSampleInterval sets the metrics sampling period (<= 0 disables
// sampling). Call before the run starts.
func (o *Observer) SetSampleInterval(d sim.Time) {
	if o == nil {
		return
	}
	o.interval = d
}

// Begin opens a span at virtual time at and returns its id. node and extra
// may be -1; parent may be 0.
func (o *Observer) Begin(name, cat string, txn int64, node, extra int, parent SpanID, at sim.Time) SpanID {
	if o == nil || o.metricsOnly {
		return 0
	}
	o.spans = append(o.spans, Span{
		Name: name, Cat: cat, Txn: txn,
		Node: int32(node), Extra: int32(extra),
		Parent: parent, Start: at, End: -1,
	})
	return SpanID(len(o.spans))
}

// End closes an open span at time at. Ending the zero span, or a span
// already ended, is a no-op. A close time before the span's start is
// clamped to the start: wall-clock sources (the live backend) are not
// guaranteed monotone across goroutines, and a negative-length span would
// corrupt the exporters. The clamp never fires under virtual time.
func (o *Observer) End(id SpanID, at sim.Time) {
	if o == nil || id == 0 {
		return
	}
	sp := &o.spans[id-1]
	if sp.End < 0 {
		if at < sp.Start {
			at = sp.Start
			o.clampedSpanEnds.Add(1)
		}
		sp.End = at
	}
}

// ClockClamps returns how often clock regression was clamped so far: span
// closes whose end time preceded their start, and metric samples taken at a
// reading before the previous one. Zero under virtual time; under the live
// backend a non-zero count quantifies cross-goroutine wall-clock skew.
// Safe to call from any goroutine.
func (o *Observer) ClockClamps() (spanEnds, samples int64) {
	if o == nil {
		return 0, 0
	}
	return o.clampedSpanEnds.Load(), o.clampedSamples.Load()
}

// Spans returns the recorded spans in creation order (aliases internal
// storage; do not mutate).
func (o *Observer) Spans() []Span {
	if o == nil {
		return nil
	}
	return o.spans
}

// Audit returns the scheduler decision audit log (nil when disabled or
// metrics-only), ready to hand to sched.Audited implementations.
func (o *Observer) Audit() *Audit {
	if o == nil || o.metricsOnly {
		return nil
	}
	return &o.audit
}

// StartSampling books the recurring metrics sample on the engine. The
// machine calls it at the start of Run; sampling events read registry state
// only, so they never perturb the simulation.
func (o *Observer) StartSampling(eng *sim.Engine) {
	if o == nil || o.interval <= 0 || o.sampling {
		return
	}
	o.sampling = true
	var tick sim.Handler
	tick = func(now sim.Time) {
		o.sample(now)
		eng.Schedule(o.interval, tick)
	}
	o.sample(eng.Now())
	eng.Schedule(o.interval, tick)
}

func (o *Observer) sample(now sim.Time) {
	// Clamp against clock regression (wall-clock sources): sample rows must
	// be nondecreasing in time or the CSV/HTML exporters would render
	// backwards series. No-op under virtual time.
	if now < o.lastTick {
		now = o.lastTick
		o.clampedSamples.Add(1)
	}
	o.lastTick = now
	if o.metricsOnly {
		o.reg.Refresh()
		return
	}
	if o.cols == nil {
		o.cols = o.reg.columns()
	}
	row := make([]float64, 0, 1+len(o.cols))
	row = append(row, now.Milliseconds())
	for _, c := range o.cols {
		row = append(row, c.read())
	}
	o.rows = append(o.rows, row)
}

// Tick is the sampling hook for hosts that do not run on a sim.Engine (the
// live backend): called as often as the host likes, it takes a metrics
// sample at clock's reading when one is due — on the first call, then once
// an interval has passed since the last sample. It reads the clock only
// when sampling is on. Finish takes the final sample as usual.
func (o *Observer) Tick(clock func() sim.Time) {
	if o == nil || o.interval <= 0 {
		return
	}
	if now := clock(); !o.sampling || now-o.lastTick >= o.interval {
		o.sampling = true
		o.sample(now)
	}
}

// Finish seals the recording at the end of a run: it closes every span
// still open at the horizon and takes a final metrics sample (without
// sampling, it still refreshes the registry's callback gauges).
func (o *Observer) Finish(now sim.Time) {
	if o == nil {
		return
	}
	for i := range o.spans {
		if o.spans[i].End < 0 {
			o.spans[i].End = now
		}
	}
	switch {
	case !o.sampling:
		o.reg.Refresh()
	case o.lastTick != now:
		o.sample(now)
	}
}

// SampleHeader returns the column names of the sampled time-series:
// "t_ms" followed by the counters and gauges in registration order, a
// labelled instance as name{key=value;...}.
func (o *Observer) SampleHeader() []string {
	if o == nil {
		return nil
	}
	cols := o.cols
	if cols == nil {
		cols = o.reg.columns()
	}
	out := make([]string, 0, 1+len(cols))
	out = append(out, "t_ms")
	for _, c := range cols {
		out = append(out, c.name)
	}
	return out
}

// Samples returns the sampled rows, one per tick, columns as in
// SampleHeader.
func (o *Observer) Samples() [][]float64 {
	if o == nil {
		return nil
	}
	return o.rows
}

// PhaseTotal aggregates all spans of one name.
type PhaseTotal struct {
	// Name is the span name.
	Name string
	// Total is the summed duration over the run.
	Total sim.Time
	// Count is the number of spans.
	Count int
}

// PhaseTotals aggregates the recorded spans of one category by name, in
// first-appearance order — the per-phase virtual-time decomposition the
// paper's analysis is built on. An empty cat aggregates everything.
func (o *Observer) PhaseTotals(cat string) []PhaseTotal {
	if o == nil {
		return nil
	}
	var out []PhaseTotal
	idx := make(map[string]int)
	for _, sp := range o.spans {
		if cat != "" && sp.Cat != cat {
			continue
		}
		i, ok := idx[sp.Name]
		if !ok {
			i = len(out)
			idx[sp.Name] = i
			out = append(out, PhaseTotal{Name: sp.Name})
		}
		out[i].Total += sp.Duration()
		out[i].Count++
	}
	return out
}
