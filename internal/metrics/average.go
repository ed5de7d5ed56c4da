package metrics

import (
	"batchsched/internal/sim"
	"batchsched/internal/stats"
)

// Average combines replication summaries by arithmetic mean (counts are
// rounded). It panics on an empty slice — averaging nothing is a harness
// bug.
func Average(sums []Summary) Summary {
	if len(sums) == 0 {
		panic("metrics: Average of no summaries")
	}
	if len(sums) == 1 {
		return sums[0]
	}
	n := len(sums)
	var out Summary
	out.Window = sums[0].Window
	var meanRT, p50, p90, p95, p99, maxRT, downTime, degradedTime float64
	for _, s := range sums {
		out.Arrivals += s.Arrivals
		out.Completions += s.Completions
		out.Blocks += s.Blocks
		out.Delays += s.Delays
		out.Restarts += s.Restarts
		out.AdmissionRejects += s.AdmissionRejects
		out.GrantedRequests += s.GrantedRequests
		out.StepsExecuted += s.StepsExecuted
		out.Crashes += s.Crashes
		out.CrashAborts += s.CrashAborts
		out.MsgLost += s.MsgLost
		out.MsgRetries += s.MsgRetries
		out.MsgAborts += s.MsgAborts
		out.StragglerEpisodes += s.StragglerEpisodes
		out.CompletionsDegraded += s.CompletionsDegraded
		out.Sheds += s.Sheds
		out.ShedQueueFull += s.ShedQueueFull
		out.ShedDeadline += s.ShedDeadline
		out.ShedOverload += s.ShedOverload
		out.Evictions += s.Evictions
		meanRT += float64(s.MeanRT)
		p50 += float64(s.P50RT)
		p90 += float64(s.P90RT)
		p95 += float64(s.P95RT)
		p99 += float64(s.P99RT)
		maxRT += float64(s.MaxRT)
		downTime += float64(s.DownTime)
		degradedTime += float64(s.DegradedTime)
		out.TPS += s.TPS
		out.CNUtilization += s.CNUtilization
		out.DPNUtilization += s.DPNUtilization
		out.DegradedTPS += s.DegradedTPS
	}
	div := func(v int) int { return (v + n/2) / n }
	out.Arrivals = div(out.Arrivals)
	out.Completions = div(out.Completions)
	out.Blocks = div(out.Blocks)
	out.Delays = div(out.Delays)
	out.Restarts = div(out.Restarts)
	out.AdmissionRejects = div(out.AdmissionRejects)
	out.GrantedRequests = div(out.GrantedRequests)
	out.StepsExecuted = div(out.StepsExecuted)
	out.Crashes = div(out.Crashes)
	out.CrashAborts = div(out.CrashAborts)
	out.MsgLost = div(out.MsgLost)
	out.MsgRetries = div(out.MsgRetries)
	out.MsgAborts = div(out.MsgAborts)
	out.StragglerEpisodes = div(out.StragglerEpisodes)
	out.CompletionsDegraded = div(out.CompletionsDegraded)
	out.Sheds = div(out.Sheds)
	out.ShedQueueFull = div(out.ShedQueueFull)
	out.ShedDeadline = div(out.ShedDeadline)
	out.ShedOverload = div(out.ShedOverload)
	out.Evictions = div(out.Evictions)
	fn := float64(n)
	out.MeanRT = sim.Time(meanRT / fn)
	out.P50RT = sim.Time(p50 / fn)
	out.P90RT = sim.Time(p90 / fn)
	out.P95RT = sim.Time(p95 / fn)
	out.P99RT = sim.Time(p99 / fn)
	out.MaxRT = sim.Time(maxRT / fn)
	out.DownTime = sim.Time(downTime / fn)
	out.DegradedTime = sim.Time(degradedTime / fn)
	out.TPS /= fn
	out.CNUtilization /= fn
	out.DPNUtilization /= fn
	out.DegradedTPS /= fn
	// Element-wise per-node utilization mean (also keeps Availability
	// computable on averaged summaries, which needs the node count).
	if n := len(sums[0].PerDPNUtilization); n > 0 {
		out.PerDPNUtilization = make([]float64, n)
		for _, s := range sums {
			for i, u := range s.PerDPNUtilization {
				if i < n {
					out.PerDPNUtilization[i] += u
				}
			}
		}
		for i := range out.PerDPNUtilization {
			out.PerDPNUtilization[i] /= fn
		}
	}
	return out
}

// CI is the 95% confidence half-width of the headline metrics across
// replications.
type CI struct {
	// MeanRT is the half-width on the mean response time.
	MeanRT sim.Time
	// TPS is the half-width on the throughput.
	TPS float64
}

// AverageWithCI combines replication summaries and also returns Student-t
// 95% confidence half-widths for mean response time and throughput
// (zero when fewer than two replications).
func AverageWithCI(sums []Summary) (Summary, CI) {
	avg := Average(sums)
	if len(sums) < 2 {
		return avg, CI{}
	}
	var rt, tps stats.Sample
	for _, s := range sums {
		rt.Add(float64(s.MeanRT))
		tps.Add(s.TPS)
	}
	return avg, CI{MeanRT: sim.Time(rt.CI95()), TPS: tps.CI95()}
}

// Replicate runs reps independent replications — run(seed), run(seed+1),
// ... (at least one) — and combines them with AverageWithCI. It stops at
// the first error.
func Replicate(seed int64, reps int, run func(seed int64) (Summary, error)) (Summary, CI, error) {
	sums := make([]Summary, max(reps, 1))
	for r := range sums {
		sum, err := run(seed + int64(r))
		if err != nil {
			return Summary{}, CI{}, err
		}
		sums[r] = sum
	}
	avg, ci := AverageWithCI(sums)
	return avg, ci, nil
}
