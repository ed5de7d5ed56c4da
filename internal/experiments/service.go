package experiments

import (
	"fmt"

	"batchsched/internal/sim"
	"batchsched/internal/stats"
	"batchsched/internal/workload"
)

// This file binds the streaming-admission service mode (internal/admit) to
// the experiment harness: named open arrival processes, the service SLO and
// its measures, and the sustained-TPS-at-SLO capacity solve — the
// open-system counterpart of SolveLambdaAtRT.

// Diurnal and burst arrival shapes for named service points: a day/night
// cycle ten virtual minutes long with a ±50% swing, and 30 s flash crowds at
// 4× the base rate every ~5 quiet minutes. Fixed here so a named process at
// a given lambda means the same traffic everywhere (batchsim, capacity
// probes, CI).
const (
	diurnalAmplitude = 0.5
	diurnalPeriod    = 600 * sim.Second
	burstFactor      = 4.0
	burstMeanQuiet   = 300 * sim.Second
	burstMeanBurst   = 30 * sim.Second
)

// ArrivalProcess builds a fresh open arrival process by name at mean rate
// lambda. Stateful processes (burst) must be rebuilt per run, which is why
// callers get a constructor call rather than a shared value.
func ArrivalProcess(name string, lambda float64) (workload.Arrivals, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("experiments: arrival process needs lambda > 0, got %g", lambda)
	}
	switch name {
	case "", "poisson":
		return workload.Poisson{Rate: lambda}, nil
	case "diurnal":
		return workload.NewDiurnal(lambda, diurnalAmplitude, diurnalPeriod), nil
	case "burst":
		return workload.NewBurst(lambda, burstFactor, burstMeanQuiet, burstMeanBurst), nil
	default:
		return nil, fmt.Errorf("experiments: unknown arrival process %q (want poisson, diurnal or burst)", name)
	}
}

// The service SLO: the paper's 70-second operating criterion (TargetRT) on
// the p95 of admitted transactions, at most two restarts per completion,
// and — the open-system teeth — at most 2% of offered arrivals shed.
// Without the shed ceiling, load shedding keeps the admitted tail healthy
// at any offered load and the capacity bisection never fails.
const (
	sloMaxAbortRate = 2
	sloMaxShedRate  = 0.02
)

// Measures are the indicators one service run (or one replication average)
// is judged on against the service SLO. Counts are float64 so replication
// means fit.
type Measures struct {
	Scheduler     string  `json:"scheduler"`
	Load          string  `json:"load"`
	Lambda        float64 `json:"lambda,omitempty"`
	TPS           float64 `json:"tps"`
	MeanRTSeconds float64 `json:"meanRtSeconds"`
	P95RTSeconds  float64 `json:"p95RtSeconds"`
	Completions   float64 `json:"completions"`
	Restarts      float64 `json:"restarts"`
	Arrivals      float64 `json:"arrivals,omitempty"`
	Sheds         float64 `json:"sheds,omitempty"`
}

// ShedRate is sheds per offered arrival (0 when nothing arrived).
func (m Measures) ShedRate() float64 {
	if m.Arrivals <= 0 {
		return 0
	}
	return m.Sheds / m.Arrivals
}

// meetsSLO reports whether the measures pass the service SLO.
func (m Measures) meetsSLO() bool {
	abortRate := 0.0
	if m.Completions > 0 {
		abortRate = m.Restarts / m.Completions
	}
	return m.P95RTSeconds <= TargetRT.Seconds() && abortRate <= sloMaxAbortRate && m.ShedRate() <= sloMaxShedRate
}

// serviceMeasures runs the service-mode point (averaging p.Reps
// replications) and digests the result into SLO measures.
func serviceMeasures(p Point) Measures {
	sum := Run(p)
	return Measures{
		Scheduler:     p.Scheduler,
		Load:          string(p.Load),
		Lambda:        p.Lambda,
		TPS:           sum.TPS,
		MeanRTSeconds: sum.MeanRT.Seconds(),
		P95RTSeconds:  sum.P95RT.Seconds(),
		Completions:   float64(sum.Completions),
		Restarts:      float64(sum.Restarts),
		Arrivals:      float64(sum.Arrivals),
		Sheds:         float64(sum.Sheds),
	}
}

// Trial is one evaluated bisection probe.
type Trial struct {
	Lambda   float64  `json:"lambda"`
	Pass     bool     `json:"pass"`
	Measures Measures `json:"measures"`
}

// CapacityResult is the sustained-TPS-at-SLO bisection outcome.
type CapacityResult struct {
	// Passed reports whether any probed rate met the SLO (false means even
	// lo failed; Lambda and SustainedTPS are then zero).
	Passed bool `json:"passed"`
	// Lambda is the largest VERIFIED passing arrival rate — a rate that was
	// actually run, never an untested midpoint.
	Lambda float64 `json:"lambda"`
	// SustainedTPS is the throughput measured at Lambda: the headline
	// open-system capacity metric.
	SustainedTPS float64 `json:"sustainedTps"`
	// Measures are the measures observed at Lambda.
	Measures Measures `json:"measures"`
	// Trials is the full probe trail, in evaluation order.
	Trials []Trial `json:"trials"`
}

// ServiceCapacity is the sustained-TPS-at-SLO solve for a simulator service
// point: it bisects the arrival rate over [lo, hi] (to within tol) for the
// largest rate whose service run, averaged over p.Reps replications, still
// meets the service SLO. The returned rate is always one that was actually
// run and passed.
func ServiceCapacity(p Point, lo, hi, tol float64) (CapacityResult, error) {
	if p.Service == nil {
		return CapacityResult{}, fmt.Errorf("experiments: ServiceCapacity needs a service-mode point")
	}
	// Point.config can only panic on an unknown arrival process, so check
	// the name once up front (any positive rate will do).
	if _, err := ArrivalProcess(p.Arrival, 1); err != nil {
		return CapacityResult{}, err
	}
	return sustainedTPS(func(lambda float64) (Measures, error) {
		q := p
		q.Lambda = lambda
		return serviceMeasures(q), nil
	}, lo, hi, tol)
}

// sustainedTPS bisects the arrival rate over [lo, hi] to the largest rate
// whose trial still meets the service SLO, to within tol. Like
// SolveLambdaAtRT, the returned rate is always one that was actually probed
// and passed — shrinking intervals never promote an untested midpoint — and
// the two share one bisection loop (stats.Bisect), which stops at float
// resolution whatever tol asks.
func sustainedTPS(trial func(lambda float64) (Measures, error), lo, hi, tol float64) (CapacityResult, error) {
	if lo <= 0 || hi <= lo || tol <= 0 {
		return CapacityResult{}, fmt.Errorf("experiments: ServiceCapacity needs 0 < lo < hi and tol > 0 (lo=%g hi=%g tol=%g)", lo, hi, tol)
	}
	var res CapacityResult
	probe := func(lambda float64) (bool, Measures, error) {
		m, err := trial(lambda)
		if err != nil {
			return false, m, fmt.Errorf("experiments: trial at lambda=%g: %w", lambda, err)
		}
		pass := m.meetsSLO()
		res.Trials = append(res.Trials, Trial{Lambda: lambda, Pass: pass, Measures: m})
		return pass, m, nil
	}
	pass, m, err := probe(lo)
	if err != nil {
		return res, err
	}
	if !pass {
		return res, nil // even the floor rate misses the SLO
	}
	res.Passed, res.Lambda, res.Measures = true, lo, m
	if pass, m, err = probe(hi); err != nil {
		return res, err
	} else if pass {
		res.Lambda, res.Measures = hi, m
		res.SustainedTPS = m.TPS
		return res, nil // the whole bracket passes
	}
	res.Lambda, _, err = stats.Bisect(lo, hi, tol, func(mid float64) (bool, error) {
		pass, m, err := probe(mid)
		if pass {
			res.Measures = m
		}
		return pass, err
	})
	if err != nil {
		return res, err
	}
	res.SustainedTPS = res.Measures.TPS
	return res, nil
}
