// Package sli defines the service-level objectives of the streaming
// service mode: a declarative SLO spec (response-time ceilings, throughput
// floors, abort-rate and shed-rate ceilings, selectable per scheduler ×
// load) and the evaluation of one run's measures against it. The
// sustained-TPS-at-SLO capacity probe (admit.SustainedTPS, batchsim
// -capacity) bisects the arrival rate against such a spec.
package sli

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"batchsched/internal/metrics"
)

// Objective is one declarative SLO row: the bounds it sets (nil = not
// checked) applied to every run whose scheduler and load match the
// selectors (empty selector = matches all).
type Objective struct {
	// Name labels the objective in checks and reports.
	Name string `json:"name"`
	// Scheduler and Load select which runs the objective applies to
	// ("" matches every value).
	Scheduler string `json:"scheduler,omitempty"`
	Load      string `json:"load,omitempty"`
	// MaxP95RTSeconds and MaxMeanRTSeconds are response-time ceilings.
	MaxP95RTSeconds  *float64 `json:"maxP95RtSeconds,omitempty"`
	MaxMeanRTSeconds *float64 `json:"maxMeanRtSeconds,omitempty"`
	// MinTPS is the throughput floor.
	MinTPS *float64 `json:"minTps,omitempty"`
	// MaxAbortRate ceilings restarts per completed transaction.
	MaxAbortRate *float64 `json:"maxAbortRate,omitempty"`
	// MaxShedRate ceilings sheds per offered arrival (open-stream service
	// runs). Without it, load shedding keeps the admitted-transaction tail
	// healthy at any offered load and a capacity bisection never fails.
	MaxShedRate *float64 `json:"maxShedRate,omitempty"`
}

// matches reports whether the objective applies to the (scheduler, load)
// pair.
func (o Objective) matches(scheduler, load string) bool {
	return (o.Scheduler == "" || o.Scheduler == scheduler) &&
		(o.Load == "" || o.Load == load)
}

// bounds returns the objective's set bounds as checks-to-run.
func (o Objective) bounds() []boundSpec {
	var out []boundSpec
	add := func(metric, kind string, p *float64, get func(Measures) float64) {
		if p != nil {
			out = append(out, boundSpec{metric: metric, kind: kind, bound: *p, get: get})
		}
	}
	add("p95_rt_seconds", "max", o.MaxP95RTSeconds, func(m Measures) float64 { return m.P95RTSeconds })
	add("mean_rt_seconds", "max", o.MaxMeanRTSeconds, func(m Measures) float64 { return m.MeanRTSeconds })
	add("tps", "min", o.MinTPS, func(m Measures) float64 { return m.TPS })
	add("abort_rate", "max", o.MaxAbortRate, func(m Measures) float64 { return m.AbortRate() })
	add("shed_rate", "max", o.MaxShedRate, func(m Measures) float64 { return m.ShedRate() })
	return out
}

type boundSpec struct {
	metric, kind string
	bound        float64
	get          func(Measures) float64
}

// Spec is a named list of objectives — the whole declarative SLO.
type Spec struct {
	Name       string      `json:"name"`
	Objectives []Objective `json:"objectives"`
}

// ServiceDefault is the open-stream service SLO: the paper's 70-second p95
// operating criterion on admitted transactions, restart churn below two
// aborts per completion, and — the open-system teeth — at most 2% of
// offered arrivals shed. It is the spec the sustained-TPS-at-SLO capacity
// probe bisects against.
func ServiceDefault() Spec {
	f := func(v float64) *float64 { return &v }
	return Spec{
		Name: "service-default",
		Objectives: []Objective{
			{Name: "rt-tail", MaxP95RTSeconds: f(70)},
			{Name: "abort-churn", MaxAbortRate: f(2)},
			{Name: "shed-rate", MaxShedRate: f(0.02)},
		},
	}
}

// Load reads and validates a JSON spec file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("sli: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sli: parsing %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate rejects specs with unnamed or boundless objectives.
func (s Spec) Validate() error {
	if len(s.Objectives) == 0 {
		return fmt.Errorf("sli: spec %q has no objectives", s.Name)
	}
	for i, o := range s.Objectives {
		if o.Name == "" {
			return fmt.Errorf("sli: spec %q objective %d has no name", s.Name, i)
		}
		if len(o.bounds()) == 0 {
			return fmt.Errorf("sli: spec %q objective %q sets no bounds", s.Name, o.Name)
		}
	}
	return nil
}

// Measures are the indicators one run (or one replication average) is
// judged on. Counts are float64 so replication means fit without a
// parallel schema.
type Measures struct {
	Scheduler     string  `json:"scheduler"`
	Load          string  `json:"load"`
	Lambda        float64 `json:"lambda,omitempty"`
	TPS           float64 `json:"tps"`
	MeanRTSeconds float64 `json:"meanRtSeconds"`
	P95RTSeconds  float64 `json:"p95RtSeconds"`
	Completions   float64 `json:"completions"`
	Restarts      float64 `json:"restarts"`
	// Arrivals and Sheds support the open-stream shed-rate bound (omitted
	// when zero).
	Arrivals float64 `json:"arrivals,omitempty"`
	Sheds    float64 `json:"sheds,omitempty"`
}

// AbortRate is restarts per completed transaction (0 when nothing
// completed).
func (m Measures) AbortRate() float64 {
	if m.Completions <= 0 {
		return 0
	}
	return m.Restarts / m.Completions
}

// ShedRate is sheds per offered arrival (0 when arrivals were not
// measured — closed-batch runs).
func (m Measures) ShedRate() float64 {
	if m.Arrivals <= 0 {
		return 0
	}
	return m.Sheds / m.Arrivals
}

// FromSummary digests a run summary into measures, the open-stream
// arrival and shed counters included.
func FromSummary(scheduler, load string, lambda float64, sum metrics.Summary) Measures {
	return Measures{
		Scheduler:     scheduler,
		Load:          load,
		Lambda:        lambda,
		TPS:           sum.TPS,
		MeanRTSeconds: sum.MeanRT.Seconds(),
		P95RTSeconds:  sum.P95RT.Seconds(),
		Completions:   float64(sum.Completions),
		Restarts:      float64(sum.Restarts),
		Arrivals:      float64(sum.Arrivals),
		Sheds:         float64(sum.Sheds),
	}
}

// Check is one evaluated bound.
type Check struct {
	// Objective is the owning objective's name; Metric the indicator.
	Objective string `json:"objective"`
	Metric    string `json:"metric"`
	// Kind is "max" (value must be <= bound) or "min" (>=).
	Kind  string  `json:"kind"`
	Bound float64 `json:"bound"`
	Value float64 `json:"value"`
	OK    bool    `json:"ok"`
}

// Evaluate runs every matching objective's bounds against the measures.
// pass is the conjunction of all checks (vacuously true when nothing
// matches).
func (s Spec) Evaluate(m Measures) (pass bool, checks []Check) {
	pass = true
	for _, o := range s.Objectives {
		if !o.matches(m.Scheduler, m.Load) {
			continue
		}
		for _, b := range o.bounds() {
			v := b.get(m)
			ok := v <= b.bound
			if b.kind == "min" {
				ok = v >= b.bound
			}
			checks = append(checks, Check{
				Objective: o.Name, Metric: b.metric, Kind: b.kind,
				Bound: b.bound, Value: v, OK: ok,
			})
			pass = pass && ok
		}
	}
	return pass, checks
}
