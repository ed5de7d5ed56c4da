package experiments

import (
	"fmt"

	"batchsched/internal/admit"
	"batchsched/internal/obs/sli"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// This file binds the streaming-admission service mode (internal/admit) to
// the experiment harness: named open arrival processes, service-mode
// measures, and the sustained-TPS-at-SLO capacity solve — the open-system
// counterpart of SolveLambdaAtRT.

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

// ServiceMeasures runs the service-mode point (averaging p.Reps
// replications) and digests the result into SLO measures, including the
// open-stream arrival/shed counters the shed-rate objective needs.
func ServiceMeasures(p Point) sli.Measures {
	if p.Service == nil {
		panic("experiments: ServiceMeasures needs a service-mode point")
	}
	return sli.FromSummary(p.Scheduler, string(p.Load), p.Lambda, Run(p))
}

// ServiceCapacity is the sustained-TPS-at-SLO solve for a simulator service
// point: it bisects the arrival rate over [lo, hi] (to within tol) for the
// largest rate whose replication-averaged service run still passes spec.
// reps > 0 overrides the point's replication count, exactly as in
// SolveLambdaAtRT. The returned rate is always one that was actually run and
// passed.
func ServiceCapacity(p Point, spec sli.Spec, reps int, lo, hi, tol float64) (admit.CapacityResult, error) {
	if p.Service == nil {
		return admit.CapacityResult{}, fmt.Errorf("experiments: ServiceCapacity needs a service-mode point")
	}
	if reps > 0 {
		p.Reps = reps
	}
	trial := func(lambda float64) (sli.Measures, error) {
		q := p
		q.Lambda = lambda
		return ServiceMeasures(q), nil
	}
	return admit.SustainedTPS(spec, trial, lo, hi, tol)
}
