package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"batchsched/internal/sim"
)

// Registry holds a run's metric instruments: counters (optionally with a
// trailing-window rate), gauges and fixed-bucket histograms. An instance
// is a name plus optional labels (alternating key/value pairs, e.g.
// "node", "3"); constant labels (Label) go on every instance.
//
// Updates are atomic and allocation-free, so any goroutine may write an
// instrument while another renders the registry (WritePrometheus, the
// /metrics endpoint). Callback gauges (GaugeFunc) are the exception: their
// callbacks read run state and run only in Refresh, on the goroutine that
// owns the run; rendering reads the value the last Refresh stored.
// Registering the same name and labels twice panics: one producer per
// instance.
//
// The nil *Registry is the disabled registry: it hands out nil instruments,
// and every instrument method is nil-receiver safe.
type Registry struct {
	mu     sync.Mutex
	labels string // constant labels, pre-rendered
	items  []*desc
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry { return &Registry{} }

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// desc is what every instrument shares: its identity and its kind, plus a
// pointer to the instrument itself.
type desc struct {
	kind   kind
	name   string
	help   string
	labels string // instance labels as Prometheus renders them: k="v",...
	column string // the CSV column: name, or name{k=v;...}
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Label adds a constant label that every rendered sample carries, e.g.
// ("backend", "sim").
func (r *Registry) Label(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.labels = joinLabels(r.labels, fmt.Sprintf("%s=%q", key, value))
}

// register adds d, panicking on a duplicate instance or on a name reused
// with another kind.
func (r *Registry) register(d *desc, kv []string) {
	if len(kv)%2 != 0 {
		panic("obs: label key/value pairs must alternate")
	}
	prom, csv := make([]string, 0, len(kv)/2), make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		prom = append(prom, fmt.Sprintf("%s=%q", kv[i], kv[i+1]))
		csv = append(csv, kv[i]+"="+kv[i+1])
	}
	d.labels = strings.Join(prom, ",")
	d.column = d.name
	if len(csv) > 0 {
		d.column += "{" + strings.Join(csv, ";") + "}"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.items {
		if have.name != d.name {
			continue
		}
		if have.kind != d.kind {
			panic(fmt.Sprintf("obs: metric %s registered as two kinds", d.name))
		}
		if have.labels == d.labels {
			panic(fmt.Sprintf("obs: duplicate metric %s{%s}", d.name, d.labels))
		}
	}
	r.items = append(r.items, d)
}

// snapshot returns the constant labels and the registration list. The list
// is append-only, so the returned prefix stays valid without the lock, and
// neither rendering nor callbacks run under it.
func (r *Registry) snapshot() (labels string, items []*desc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.labels, r.items
}

// Counter is a monotone event count, optionally with a trailing-window
// rate (Registry.Rate). The nil Counter absorbs updates.
type Counter struct {
	n      atomic.Int64
	slotUS int64 // rate slot width in sim.Time microseconds; 0 = no rate
	slots  []rateSlot
}

type rateSlot struct {
	epoch atomic.Int64 // the slot's generation: at/slotUS when last written
	n     atomic.Int64
}

// rateSlots is the number of slots a trailing window is split into.
const rateSlots = 10

// Counter registers a counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.Rate(name, help, 0, labels...)
}

// Rate registers a counter that also estimates its event rate over the
// trailing window (0 = no rate), rendered as name_per_sec.
func (r *Registry) Rate(name, help string, window sim.Time, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	if window > 0 {
		c.slotUS = max(int64(window)/rateSlots, 1)
		c.slots = make([]rateSlot, rateSlots)
	}
	r.register(&desc{kind: kindCounter, name: name, help: help, c: c}, labels)
	return c
}

// Add counts n events at clock reading at (the clock only matters to the
// rate window).
func (c *Counter) Add(at sim.Time, n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
	if c.slots == nil {
		return
	}
	// Under write contention a slot reset may drop a few events from the
	// window (never from the total), which is fine for monitoring.
	epoch := int64(at) / c.slotUS
	s := &c.slots[epoch%rateSlots]
	for {
		old := s.epoch.Load()
		if old == epoch {
			break
		}
		if s.epoch.CompareAndSwap(old, epoch) {
			s.n.Store(0)
			break
		}
	}
	s.n.Add(n)
}

// Value returns the count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// RatePerSec estimates events per second over the trailing window ending
// at now (0 on nil or without a window).
func (c *Counter) RatePerSec(now sim.Time) float64 {
	if c == nil || c.slots == nil {
		return 0
	}
	cur := int64(now) / c.slotUS
	var n int64
	for i := range c.slots {
		if e := c.slots[i].epoch.Load(); e > cur-rateSlots && e <= cur {
			n += c.slots[i].n.Load()
		}
	}
	return float64(n) / (float64(c.slotUS*rateSlots) / 1e6)
}

// Gauge is a point-in-time value: set by its producer (Set, Add), or
// stored by Refresh from a callback (GaugeFunc). The nil Gauge absorbs
// updates.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
	fn   func() float64
}

// Gauge registers a gauge its producer sets.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.GaugeFunc(name, help, nil, labels...)
}

// GaugeFunc registers a gauge whose value fn computes. fn runs only in
// Refresh, on the goroutine that owns the run, so it may read run state;
// it must be cheap and must not change the run.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{fn: fn}
	r.register(&desc{kind: kindGauge, name: name, help: help, g: g}, labels)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d.
func (g *Gauge) Add(d float64) {
	if g != nil {
		addFloat(&g.bits, d)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Refresh runs every callback gauge and stores its value. Call it on the
// goroutine that owns the run.
func (r *Registry) Refresh() {
	if r == nil {
		return
	}
	_, items := r.snapshot()
	for _, d := range items {
		if d.g != nil {
			d.g.refresh()
		}
	}
}

// refresh stores a callback gauge's value and returns the gauge's value.
// The store, a full fence, is skipped when the value has not changed.
func (g *Gauge) refresh() float64 {
	if g.fn == nil {
		return g.Value()
	}
	v := g.fn()
	if b := math.Float64bits(v); g.bits.Load() != b {
		g.bits.Store(b)
	}
	return v
}

// Histogram is a fixed-bucket distribution. Bucket i counts observations v
// with bounds[i-1] < v <= bounds[i] (upper bound inclusive); one implicit
// overflow bucket catches v > bounds[len-1]. The nil Histogram absorbs
// observations.
type Histogram struct {
	name    string
	bounds  []float64
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits
}

// Histogram registers a histogram over the given ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(&desc{kind: kindHistogram, name: name, help: help, h: h}, labels)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0 // sort.SearchFloat64s, without its per-probe call
	for i < len(h.bounds) && !(h.bounds[i] >= v) {
		i++
	}
	h.counts[i].Add(1)
	addFloat(&h.sumBits, v)
}

// Counts returns a copy of the per-bucket counts; the last entry is the
// overflow bucket.
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for _, c := range h.Counts() {
		n += c
	}
	return n
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// Quantile estimates the q-quantile (q clamped to [0, 1]) by linear
// interpolation inside the bucket holding rank q*count, the bucket's lower
// bound being the previous bound (0 for the first). A rank in the overflow
// bucket reports the top bound. 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.Counts()
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(n)
	var cum uint64
	for i, c := range counts {
		if c == 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(h.bounds) {
			break
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-float64(cum))/float64(c)
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// histograms returns the registered histograms in registration order.
func (r *Registry) histograms() []*Histogram {
	var out []*Histogram
	_, items := r.snapshot()
	for _, d := range items {
		if d.h != nil {
			out = append(out, d.h)
		}
	}
	return out
}

// column is one sampled series of the CSV time-series.
type column struct {
	name    string
	counter bool
	read    func() float64
}

// columns returns the sampled instruments: counters, then gauges, each in
// registration order. Reading a callback gauge's column refreshes it.
func (r *Registry) columns() []column {
	_, items := r.snapshot()
	cols := make([]column, 0, len(items))
	for _, k := range []kind{kindCounter, kindGauge} {
		for _, d := range items {
			switch {
			case d.kind != k:
			case d.c != nil:
				c := d.c
				cols = append(cols, column{d.column, true, func() float64 { return float64(c.Value()) }})
			default:
				cols = append(cols, column{d.column, false, d.g.refresh})
			}
		}
	}
	return cols
}

// addFloat adds d to the float64 stored as bits in a.
func addFloat(a *atomic.Uint64, d float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// joinLabels joins non-empty pre-rendered label lists with commas.
func joinLabels(parts ...string) string {
	out := ""
	for _, p := range parts {
		if p == "" {
			continue
		}
		if out != "" {
			out += ","
		}
		out += p
	}
	return out
}
