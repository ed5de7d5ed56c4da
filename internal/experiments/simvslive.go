package experiments

// Sim-vs-live cross-validation on the Experiment-1 grid: the same closed
// batch of Pattern1 transactions is driven through the virtual-clock
// simulator and the real-execution backend (internal/engine/live), and the
// schedulers' *relative throughput rankings* are compared. Absolute numbers
// are incomparable by construction — the simulator charges 1000 ms of
// virtual service per object while the live backend scans an in-memory
// partition in microseconds — but if the model is faithful, which scheduler
// beats which must not depend on whether time is simulated. cmd/batchsim
// -compare runs this; TestSimVsLiveRankings pins the agreement.

import (
	"fmt"
	"sort"
	"time"

	"batchsched/internal/engine/live"
	"batchsched/internal/model"
	"batchsched/internal/report"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// SimVsLiveCell is one Experiment-1 grid cell.
type SimVsLiveCell struct {
	// NumFiles is the database size.
	NumFiles int
	// DD is the degree of declustering.
	DD int
}

func (c SimVsLiveCell) String() string {
	return fmt.Sprintf("files=%d DD=%d", c.NumFiles, c.DD)
}

// SimVsLiveSchedulers are the protocols whose ranking is compared — the
// paper's headline comparison set.
var SimVsLiveSchedulers = []string{"NODC", "GOW", "LOW", "C2PL"}

// SimVsLiveGrid is the default Exp-1 grid: a small contended database at
// DD 1 and the paper's 16-file database declustered two ways.
var SimVsLiveGrid = []SimVsLiveCell{{NumFiles: 4, DD: 1}, {NumFiles: 16, DD: 2}}

// SimVsLiveResult is one cell's makespan throughput per scheduler on each
// backend. Units differ (virtual TPS vs wall TPS); only ratios and order
// are meaningful across the two maps.
type SimVsLiveResult struct {
	Cell    SimVsLiveCell
	SimTPS  map[string]float64
	LiveTPS map[string]float64
}

// simVsLiveSim runs the batch closed on the simulator: the cell's machine,
// no arrival process, a four-hour horizon (not a target).
func simVsLiveSim(cell SimVsLiveCell, name string, batch [][]model.Step) (float64, error) {
	p := Point{Scheduler: name, NumFiles: cell.NumFiles, DD: cell.DD, Duration: 4 * 3_600_000 * sim.Millisecond}
	cfg, params := p.config()
	sum, err := newMachine(cfg, p.Scheduler, params, nil, 1).RunBatch(batch)
	if err != nil {
		return 0, fmt.Errorf("sim %s %v: %w", name, cell, err)
	}
	return sum.TPS, nil
}

func simVsLiveLive(cell SimVsLiveCell, name string, batch [][]model.Step) (float64, error) {
	cfg := live.DefaultConfig()
	cfg.NumFiles = cell.NumFiles
	cfg.DD = cell.DD
	cfg.RowsPerObject = 64
	// Pace service so that real I/O time dominates CN overhead, the same
	// separation of scales the simulator's 1000 ms ObjTime buys it.
	cfg.PacePerObject = 300 * time.Microsecond
	cfg.RestartDelay = 2 * time.Millisecond
	cfg.RestartJitter = true
	cfg.Deadline = 2 * time.Minute
	b, err := live.New(cfg, sched.MustNew(name, sched.DefaultParams()))
	if err != nil {
		return 0, err
	}
	sum, err := b.RunBatch(batch)
	if err != nil {
		return 0, fmt.Errorf("live %s %v: %w", name, cell, err)
	}
	return sum.TPS, nil
}

// RunSimVsLive runs every scheduler of the comparison set over every grid
// cell on both backends, one shared batch of n transactions per cell.
func RunSimVsLive(seed int64, n int) ([]SimVsLiveResult, error) {
	var out []SimVsLiveResult
	for _, cell := range SimVsLiveGrid {
		batch := workload.DrawBatch(workload.NewExp1(cell.NumFiles), seed, n)
		r := SimVsLiveResult{
			Cell:    cell,
			SimTPS:  make(map[string]float64),
			LiveTPS: make(map[string]float64),
		}
		for _, name := range SimVsLiveSchedulers {
			st, err := simVsLiveSim(cell, name, batch)
			if err != nil {
				return nil, err
			}
			lt, err := simVsLiveLive(cell, name, batch)
			if err != nil {
				return nil, err
			}
			r.SimTPS[name] = st
			r.LiveTPS[name] = lt
		}
		out = append(out, r)
	}
	return out, nil
}

// Ranking orders scheduler names by descending throughput.
func Ranking(tps map[string]float64) []string {
	names := make([]string, 0, len(tps))
	for n := range tps {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if tps[names[i]] != tps[names[j]] {
			return tps[names[i]] > tps[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// SimVsLiveTable renders the comparison for EXPERIMENTS.md / cmd/batchsim.
func SimVsLiveTable(results []SimVsLiveResult) *report.Table {
	t := &report.Table{
		Title:  "Sim vs live — Experiment-1 closed-batch throughput ranking per backend.",
		Note:   "TPS units differ by construction (virtual vs wall clock); compare order, not magnitude.",
		Header: []string{"cell", "scheduler", "sim TPS", "live TPS", "sim rank", "live rank"},
	}
	for _, r := range results {
		simRank := rankIndex(Ranking(r.SimTPS))
		liveRank := rankIndex(Ranking(r.LiveTPS))
		for _, name := range SimVsLiveSchedulers {
			t.AddRow(r.Cell.String(), name,
				report.F(r.SimTPS[name], 3), report.F(r.LiveTPS[name], 1),
				fmt.Sprint(simRank[name]), fmt.Sprint(liveRank[name]))
		}
	}
	return t
}

func rankIndex(order []string) map[string]int {
	m := make(map[string]int, len(order))
	for i, n := range order {
		m[n] = i + 1
	}
	return m
}
