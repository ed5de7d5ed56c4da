package admit

import (
	"fmt"

	"batchsched/internal/obs/sli"
	"batchsched/internal/stats"
)

// TrialFunc runs one duration-bounded service trial at arrival rate lambda
// (typically replication-averaged) and returns its measures for SLO
// evaluation.
type TrialFunc func(lambda float64) (sli.Measures, error)

// Trial is one evaluated bisection probe.
type Trial struct {
	Lambda   float64      `json:"lambda"`
	Pass     bool         `json:"pass"`
	Measures sli.Measures `json:"measures"`
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
	Measures sli.Measures `json:"measures"`
	// Trials is the full probe trail, in evaluation order.
	Trials []Trial `json:"trials"`
}

// SustainedTPS bisects the arrival rate over [lo, hi] to the largest rate
// whose service-mode trial still passes spec, to within tol. Like
// experiments.SolveLambdaAtRT, the returned rate is always one that was
// actually probed and passed — shrinking intervals never promote an
// untested midpoint — and the two share one bisection loop (stats.Bisect),
// which stops at float resolution whatever tol asks. Sheds are part of the
// measures, so a spec with a shed-rate ceiling (sli.ServiceDefault) prevents
// the degenerate fixed point where shedding keeps the admitted p95 healthy
// at any offered load.
func SustainedTPS(spec sli.Spec, trial TrialFunc, lo, hi, tol float64) (CapacityResult, error) {
	if lo <= 0 || hi <= lo || tol <= 0 {
		return CapacityResult{}, fmt.Errorf("admit: SustainedTPS needs 0 < lo < hi and tol > 0 (lo=%g hi=%g tol=%g)", lo, hi, tol)
	}
	var res CapacityResult
	probe := func(lambda float64) (bool, sli.Measures, error) {
		m, err := trial(lambda)
		if err != nil {
			return false, m, fmt.Errorf("admit: trial at lambda=%g: %w", lambda, err)
		}
		pass, _ := spec.Evaluate(m)
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
