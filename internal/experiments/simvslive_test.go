package experiments

import (
	"slices"
	"strings"
	"testing"

	"batchsched/internal/workload"
)

// liveReps is the number of live draws per scheduler in
// TestSimVsLiveRankings. Two tied schedulers have all R draws of one above
// all R of the other with chance 2/C(2R, R): 1 in 1716 at R = 7.
const liveReps = 7

// TestSimVsLiveRankings is the acceptance check the real-execution-backend
// PR names: on the Exp-1 grid, the simulator and the live backend must
// agree on the schedulers' relative throughput ranking, and NODC — which
// never blocks anything — must be the fastest on both.
//
// The simulator is deterministic, so one run per scheduler and a 10%
// margin separate a pair there. One live run is one wall-clock draw, and
// the draws spread wider than that margin, so each scheduler runs liveReps
// times live, round-robin so host drift hits all alike, and a live pair
// counts as separated only when every draw of one lies above every draw
// of the other. Every pair both backends separate must be ordered alike.
func TestSimVsLiveRankings(t *testing.T) {
	n := 32
	if testing.Short() {
		n = 16
	}
	for _, cell := range SimVsLiveGrid {
		batch := workload.DrawBatch(workload.NewExp1(cell.NumFiles), 7, n)
		simTPS := make(map[string]float64)
		for _, name := range SimVsLiveSchedulers {
			tps, err := simVsLiveSim(cell, name, batch)
			if err != nil {
				t.Fatal(err)
			}
			simTPS[name] = tps
		}
		liveTPS := make(map[string][]float64)
		for r := 0; r < liveReps; r++ {
			for _, name := range SimVsLiveSchedulers {
				tps, err := simVsLiveLive(cell, name, batch)
				if err != nil {
					t.Fatal(err)
				}
				liveTPS[name] = append(liveTPS[name], tps)
			}
		}
		for _, name := range SimVsLiveSchedulers {
			t.Logf("cell %v: %-4s sim %.3f TPS, live %.0f..%.0f TPS", cell, name,
				simTPS[name], slices.Min(liveTPS[name]), slices.Max(liveTPS[name]))
		}

		names := Ranking(simTPS)
		if names[0] != "NODC" {
			t.Errorf("cell %v: sim ranks %s fastest, want NODC (it never blocks)", cell, names[0])
		}
		for i, x := range names {
			for _, y := range names[i+1:] {
				// x is ahead of y in sim; live must not put y wholly ahead.
				if separated(simTPS[x], simTPS[y], 0.10) && allAbove(liveTPS[y], liveTPS[x]) {
					t.Errorf("cell %v: ranking disagrees on %s vs %s: sim %.3g/%.3g, every live draw of %s above every one of %s (%v / %v)",
						cell, x, y, simTPS[x], simTPS[y], y, x, liveTPS[x], liveTPS[y])
				}
			}
			if x != "NODC" && allAbove(liveTPS[x], liveTPS["NODC"]) {
				t.Errorf("cell %v: every live draw of %s beats every one of NODC (%v / %v), want NODC fastest (it never blocks)",
					cell, x, liveTPS[x], liveTPS["NODC"])
			}
		}
	}
}

// separated reports whether x and y differ by at least margin, relative to
// the smaller of the two.
func separated(x, y, margin float64) bool {
	lo := x
	if y < lo {
		lo = y
	}
	if lo <= 0 {
		return true
	}
	d := x - y
	if d < 0 {
		d = -d
	}
	return d/lo >= margin
}

// allAbove reports whether every draw in a lies above every draw in b.
func allAbove(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && slices.Min(a) > slices.Max(b)
}

func TestSimVsLiveTableShape(t *testing.T) {
	results := []SimVsLiveResult{{
		Cell:    SimVsLiveCell{NumFiles: 4, DD: 1},
		SimTPS:  map[string]float64{"NODC": 4, "GOW": 3, "LOW": 2.5, "C2PL": 1},
		LiveTPS: map[string]float64{"NODC": 400, "GOW": 290, "LOW": 260, "C2PL": 90},
	}}
	tbl := SimVsLiveTable(results)
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"NODC", "GOW", "LOW", "C2PL", "files=4 DD=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
}
