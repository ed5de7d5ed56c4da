package experiments

import (
	"fmt"

	"batchsched/internal/metrics"
	"batchsched/internal/report"
	"batchsched/internal/workload"
)

// This file carries the ablation studies DESIGN.md calls out: each isolates
// one design choice of the reproduction (or of the paper's schedulers) and
// measures its effect. They are not paper artifacts; cmd/paperbench runs
// them with -ablations. Their knobs live on Point, so they replicate and
// share the replication memo like the artifacts.

// ablate simulates p (Run: replications and the replication memo) and
// returns its throughput and mean response time in seconds.
func ablate(p Point) (tps float64, rtSec float64) {
	sum := Run(p)
	return sum.TPS, sum.MeanRT.Seconds()
}

// AblationLOWK sweeps LOW's conflict bound K. The paper fixes K=2; the
// sweep shows the admission/contention trade-off: K=0 refuses all shared
// conflicts (ASL-like starts), large K approaches unconstrained admission.
func AblationLOWK(o Options) *report.Table {
	o = o.norm()
	ks := []int{0, 1, 2, 4, 8}
	t := &report.Table{
		Title:  "Ablation — LOW conflict bound K (paper uses K=2).",
		Note:   "Mean RT (s) at λ=1.2, DD=1; exp1 = blocking workload, exp2 = hot set.",
		Header: []string{"K", "exp1 RT", "exp1 TPS", "exp2 RT", "exp2 TPS"},
	}
	for _, k := range ks {
		var cells []string
		cells = append(cells, fmt.Sprint(k))
		for _, load := range []Workload{Exp1, Exp2} {
			p := o.point()
			p.Scheduler, p.Lambda, p.Load, p.K, p.ExactK = "LOW", 1.2, load, k, true
			tps, rt := ablate(p)
			cells = append(cells, report.F(rt, 0), report.F(tps, 2))
		}
		t.AddRow(cells...)
	}
	return t
}

// AblationGOWOptimization compares GOW's global optimization against a
// greedy variant that grants any non-contradictory request (no Phase 2/3).
func AblationGOWOptimization(o Options) *report.Table {
	o = o.norm()
	t := &report.Table{
		Title:  "Ablation — GOW global optimization vs greedy (first-come) orientation.",
		Note:   "Exp.1, λ=1.2, NumFiles=16.",
		Header: []string{"DD", "GOW RT(s)", "GOW TPS", "greedy RT(s)", "greedy TPS"},
	}
	for _, dd := range []int{1, 2, 4} {
		base := o.point()
		base.Scheduler, base.Lambda, base.DD = "GOW", 1.2, dd
		tps1, rt1 := ablate(base)
		base.GOWGreedy = true
		tps2, rt2 := ablate(base)
		t.AddRow(fmt.Sprint(dd), report.F(rt1, 0), report.F(tps1, 2), report.F(rt2, 0), report.F(tps2, 2))
	}
	return t
}

// AblationQuantum compares the paper's 1/DD-object round-robin quantum with
// run-to-completion cohort service at the data-processing nodes.
func AblationQuantum(o Options) *report.Table {
	o = o.norm()
	t := &report.Table{
		Title:  "Ablation — DPN service discipline: round-robin (paper) vs run-to-completion.",
		Note:   "Exp.1, λ=1.2, NumFiles=16, DD=4.",
		Header: []string{"scheduler", "RR RT(s)", "RR TPS", "RTC RT(s)", "RTC TPS"},
	}
	for _, s := range []string{"NODC", "ASL", "LOW"} {
		base := o.point()
		base.Scheduler, base.Lambda, base.DD = s, 1.2, 4
		tps1, rt1 := ablate(base)
		base.RunToCompletion = true
		tps2, rt2 := ablate(base)
		t.AddRow(s, report.F(rt1, 0), report.F(tps1, 2), report.F(rt2, 0), report.F(tps2, 2))
	}
	return t
}

// AblationRetryPolicy compares the reproduction's retry choices: waking
// delayed requests on grants+commits vs commits only, and charging
// admission CPU on every retry vs first attempt only.
func AblationRetryPolicy(o Options) *report.Table {
	o = o.norm()
	t := &report.Table{
		Title:  "Ablation — retry policy: delayed-request wake-ups and admission CPU charging.",
		Note:   "Exp.1, λ=1.2, NumFiles=16, DD=1. base = wake on grant+commit, first-attempt charging.",
		Header: []string{"scheduler", "base RT(s)", "commit-only RT(s)", "charge-retries RT(s)"},
	}
	for _, s := range []string{"GOW", "LOW", "C2PL"} {
		base := o.point()
		base.Scheduler, base.Lambda = s, 1.2
		_, rt1 := ablate(base)
		b2 := base
		b2.NoWakeOnGrant = true
		_, rt2 := ablate(b2)
		b3 := base
		b3.ChargeRetryCPU = true
		_, rt3 := ablate(b3)
		t.AddRow(s, report.F(rt1, 0), report.F(rt2, 0), report.F(rt3, 0))
	}
	return t
}

// Ablations lists the ablation and extension studies in presentation order.
var Ablations = []Artifact{
	{"ablation-lowk", "Ablation: LOW conflict bound K", AblationLOWK},
	{"ablation-gow", "Ablation: GOW global optimization vs greedy", AblationGOWOptimization},
	{"ablation-quantum", "Ablation: DPN round-robin quantum vs run-to-completion", AblationQuantum},
	{"ablation-retry", "Ablation: retry wake-up and CPU charging policy", AblationRetryPolicy},
	{"ext-lb", "Extension: resource-level load balancing (LOW vs LOW-LB)", ExtensionLoadBalance},
}

// ExtensionLoadBalance evaluates the paper's stated further work:
// resource-level load balancing for the WTPG schedulers. LOW-LB scales the
// WTPG's T0 weights by the congestion of the nodes each transaction still
// has to visit; on a Zipf-skewed variant of Experiment 1 (popular files
// overload their home nodes) it is compared against plain LOW.
func ExtensionLoadBalance(o Options) *report.Table {
	o = o.norm()
	t := &report.Table{
		Title:  "Extension — resource-level load balancing (paper's further work): LOW vs LOW-LB.",
		Note:   "Experiment 1 with Zipf(θ) file popularity, λ=0.5, DD=1, NumFiles=16. Mean RT (s) / TPS.",
		Header: []string{"θ", "LOW RT", "LOW TPS", "LOW-LB RT", "LOW-LB TPS"},
	}
	for _, theta := range []float64{0, 0.8, 1.2} {
		row := []string{report.F(theta, 1)}
		for _, name := range []string{"LOW", "LOW-LB"} {
			p := o.point()
			p.Scheduler, p.Lambda = name, 0.5
			cfg, params := p.config()
			// The skewed generator is not a Point workload, so these runs
			// replicate without the memo.
			sum, _, _ := metrics.Replicate(p.Seed, p.Reps, func(seed int64) (metrics.Summary, error) {
				return newMachine(cfg, p.Scheduler, params, workload.NewExp1Skewed(16, theta), seed).Run(), nil
			})
			row = append(row, report.F(sum.MeanRT.Seconds(), 1), report.F(sum.TPS, 2))
		}
		t.AddRow(row...)
	}
	return t
}
