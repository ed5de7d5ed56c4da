package experiments

import (
	"math"

	"batchsched/internal/report"
	"batchsched/internal/sim"
)

// Exp4MTBFs is the per-node MTBF sweep of the fault experiment; 0 is the
// failure-free reference row.
var Exp4MTBFs = []sim.Time{0, 500 * sim.Second, 200 * sim.Second, 100 * sim.Second, 50 * sim.Second}

// Exp4 parameters: a moderate load the failure-free machine handles
// comfortably, mild declustering (so one crash hits multiple transactions),
// a short outage, and a restart hold-back so crash victims do not hammer a
// still-down node.
const (
	exp4Lambda       = 0.6
	exp4DD           = 2
	exp4MTTR         = 10 * sim.Second
	exp4RestartDelay = 5 * sim.Second
)

// Exp4 regenerates the fault experiment (an extension, not in the paper):
// per-scheduler mean response time and restart rate as node crashes become
// more frequent. Because every fault draw comes from a dedicated RNG
// stream, all schedulers in a row face the identical crash schedule, and
// the availability column is scheduler-independent.
func Exp4(o Options) *report.Table {
	pts := Exp4Spec(o).Points()
	for i := range pts {
		// The failure-free reference row keeps the same restart hold-back
		// as the faulty rows (it only matters when aborts happen).
		pts[i].RestartDelay = exp4RestartDelay
	}
	sums := RunAll(pts)
	t := &report.Table{
		Title: "Exp. 4 — Faults: Node MTBF vs. Mean Resp.Time (s) at λ=0.6, DD=2, NumFiles=16 (extension; not in the paper).",
		Note: "Cells: mean RT s (restarts per commit). Per-node MTTR=10s, RestartDelay=5s. " +
			"avail = fraction of node-time up; identical across schedulers by construction.",
		Header: append(append([]string{"MTBF(s)"}, sixSchedulers...), "avail"),
	}
	i := 0
	for _, mtbf := range Exp4MTBFs {
		label := "none"
		if mtbf > 0 {
			label = report.F(mtbf.Seconds(), 0)
		}
		row := []string{label}
		avail := 1.0
		for range sixSchedulers {
			s := sums[i]
			rpc := math.NaN()
			if s.Completions > 0 {
				rpc = float64(s.Restarts) / float64(s.Completions)
			}
			row = append(row, report.Paren(report.F(s.MeanRT.Seconds(), 1), report.F(rpc, 2)))
			avail = s.Availability()
			i++
		}
		row = append(row, report.Pct(100*avail, 1))
		t.AddRow(row...)
	}
	return t
}
