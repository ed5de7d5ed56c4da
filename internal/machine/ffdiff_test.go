package machine

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"testing"

	"batchsched/internal/fault"
	"batchsched/internal/metrics"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/trace"
	"batchsched/internal/workload"
)

// The fast-forward DPN engine (dpn_ff.go) must be observationally identical
// to the quantum-stepped oracle (dpn_stepped.go): same completion times,
// same calendar ordering among simultaneous events, same metrics. These
// tests compare the two engines over randomized node-level schedules and
// full machine runs, byte for byte where the output is serial.

// ffSeeds is the number of seeded schedules of each shape that
// TestFFDiffRandomSchedules compares; CI runs it with -ffseeds=5000.
var ffSeeds = flag.Int("ffseeds", 500, "seeded schedules of each shape in TestFFDiffRandomSchedules")

// ffDiffSchedule drives one dpn through a randomized schedule of arrivals,
// cohort deaths, node crashes/restores, straggler toggles and queue-length
// probes, and returns a serial log of everything observable. The schedule is
// derived only from the seed and the shape, so both engines replay exactly
// the same one.
//
// A short schedule draws whole-millisecond quanta up to 1.5 s and demands
// up to 5 s over 30 s windows. A long one has 1–50 ms quanta and hundreds
// to thousands of quanta per cohort over windows seven times longer, so
// replays skip whole rounds and the deaths, toggles, crashes and probes
// land inside skipped spans. It opens with a head group delivered together
// at t=0 and left alone until the end of its m-th round: a probe there, or
// in one schedule of four the run's horizon, lands exactly on the last
// boundary a skip may cover. The first head cohort's demand is an exact
// multiple of its quantum.
func ffDiffSchedule(t *testing.T, seed int64, stepped, long bool) []string {
	t.Helper()
	g := sim.NewRNG(seed)
	eng := sim.NewEngine()
	met := metrics.NewCollector(1, 0)
	d := newDPN(0, eng, met)
	d.stepped = stepped
	var log []string
	// Everything is booked before the run starts, at t=0, so each delay
	// handed to Schedule below is the event's absolute time.
	scale, horizon, start := 1, sim.Time(1<<50), sim.Time(0)
	drawQ := func() sim.Time { return sim.Time(1+g.Intn(1500)) * sim.Millisecond }
	if long {
		scale = 7
		drawQ = func() sim.Time { return sim.Millisecond + sim.Time(g.Intn(int(49*sim.Millisecond)+1)) }
	}
	// span draws lo + [0, n) ms, both stretched by scale.
	span := func(lo, n int) sim.Time { return sim.Time(lo*scale+g.Intn(n*scale)) * sim.Millisecond }
	probe := func(at sim.Time) {
		eng.Schedule(at, func(now sim.Time) {
			log = append(log, fmt.Sprintf("q=%d@%v", d.queueLen(), now))
		})
	}

	type arrival struct {
		c     *cohort
		added bool
		done  bool
	}
	var arrivals []*arrival
	arrive := func(at, rem, q sim.Time) *arrival {
		i := len(arrivals)
		a := &arrival{c: &cohort{remaining: rem, quantum: q}}
		arrivals = append(arrivals, a)
		a.c.done = func() {
			a.done = true
			log = append(log, fmt.Sprintf("done %d@%v", i, eng.Now()))
		}
		eng.Schedule(at, func(now sim.Time) {
			if d.down {
				return
			}
			a.added = true
			d.add(a.c)
		})
		return a
	}
	// longDemand is a long cohort's demand: hundreds to thousands of quanta,
	// an exact multiple of q or with a short last slice.
	longDemand := func(q sim.Time, exact bool) sim.Time {
		rem := sim.Time(100+g.Intn(2900)) * q
		if !exact {
			rem += sim.Time(1 + g.Intn(int(q)-1))
		}
		return rem
	}
	if long {
		k := 2 + g.Intn(3)
		var round sim.Time
		quanta := 1 << 30
		for i := 0; i < k; i++ {
			q := drawQ()
			rem := longDemand(q, i == 0)
			arrive(0, rem, q)
			round += q
			quanta = min(quanta, int(rem/q))
		}
		start = sim.Time(1+g.Intn(quanta)) * round
		if g.Intn(4) == 0 {
			horizon = start
		} else {
			probe(start)
		}
	}

	n := 5 + g.Intn(20)
	globalQ := drawQ()
	uniform := g.Intn(2) == 0 // the machine always uses one quantum per run
	for i := 0; i < n; i++ {
		at := start + span(0, 30_000)
		var rem, q sim.Time
		if long {
			q = globalQ
			if !uniform {
				q = drawQ()
			}
			rem = longDemand(q, g.Intn(2) == 0)
		} else {
			rem = sim.Time(g.Intn(5000)) * sim.Millisecond
			if g.Intn(10) == 0 {
				rem = 0
			}
			q = globalQ
			if !uniform {
				q = drawQ()
			}
		}
		a := arrive(at, rem, q)
		if g.Intn(5) == 0 {
			eng.Schedule(at+span(0, 3000), func(now sim.Time) {
				if a.done || !a.added {
					return
				}
				d.sync() // boundaries before the mark served the cohort live
				a.c.dead = true
				d.deadMarked()
			})
		}
	}
	for i := 0; i < 2; i++ {
		crashAt := start + span(0, 30_000)
		backAt := crashAt + span(2000, 3000)
		eng.Schedule(crashAt, func(now sim.Time) {
			if d.down {
				return
			}
			killed := d.crash()
			log = append(log, fmt.Sprintf("crash@%v killed=%d", now, len(killed)))
		})
		eng.Schedule(backAt, func(now sim.Time) { d.restore() })
	}
	for i := 0; i < 2; i++ {
		onAt := start + span(0, 30_000)
		offAt := onAt + span(1000, 4000)
		eng.Schedule(onAt, func(now sim.Time) { d.setSlow(1.5) })
		eng.Schedule(offAt, func(now sim.Time) { d.setSlow(1) })
	}
	for i := 0; i < 10; i++ {
		probe(start + span(0, 40_000))
	}
	eng.Run(horizon)
	d.flush(horizon)
	log = append(log, fmt.Sprintf("busy=%v", met.DPNBusyTime(0)))
	return log
}

// TestFFDiffRandomSchedules is the node-level differential property test:
// arbitrary arrival/crash/straggler/death schedules, short and long, must
// produce identical completion times, observation logs and busy totals
// under both engines.
func TestFFDiffRandomSchedules(t *testing.T) {
	for _, long := range []bool{false, true} {
		for seed := int64(1); seed <= int64(*ffSeeds); seed++ {
			ff := ffDiffSchedule(t, seed, false, long)
			st := ffDiffSchedule(t, seed, true, long)
			if len(ff) != len(st) {
				t.Fatalf("long=%v seed %d: %d vs %d log entries\nff: %v\nstepped: %v", long, seed, len(ff), len(st), ff, st)
			}
			for i := range ff {
				if ff[i] != st[i] {
					t.Fatalf("long=%v seed %d entry %d: ff %q stepped %q\nff: %v\nstepped: %v", long, seed, i, ff[i], st[i], ff, st)
				}
			}
		}
	}
}

// TestFFDiffSkipRounds checks the whole-round skip against the replay it
// shortcuts, one boundary at a time, on targets the calendar never asks
// for: flushes far past completions, where the completion bound rather
// than the forecast keeps a skip exact. Between flushes a straggler toggle
// leaves the in-flight service at its booked speed, and a dead mark leaves
// a corpse in the ring.
func TestFFDiffSkipRounds(t *testing.T) {
	for seed := int64(1); seed <= int64(*ffSeeds); seed++ {
		var logs [2][]string
		for pass := range logs {
			g := sim.NewRNG(seed)
			met := metrics.NewCollector(1, 0)
			d := newDPN(0, sim.NewEngine(), met)
			log := &logs[pass]
			var ring []*cohort
			for i, n := 0, 1+g.Intn(6); i < n; i++ {
				q := sim.Time(1 + g.Intn(50))
				rem := sim.Time(1+g.Intn(300)) * q
				if g.Intn(2) == 0 {
					rem += sim.Time(g.Intn(int(q)))
				}
				c := &cohort{remaining: rem, quantum: q}
				c.done = func() { *log = append(*log, fmt.Sprintf("done %d@%v", i, d.svcEnd)) }
				ring = append(ring, c)
				d.add(c)
			}
			var at sim.Time
			for step := 0; step < 3; step++ {
				at += sim.Time(g.Intn(20_000))
				if pass == 0 {
					d.flush(at)
				} else {
					for d.busy && d.svcEnd <= at {
						d.applyBoundary()
					}
				}
				*log = append(*log, fmt.Sprintf("@%v busy=%v cur=%d n=%d svc=%v..%v/%v/%v anchor=%v/%v/%d dpn=%v",
					at, d.busy, d.cur, len(d.ring), d.svcStart, d.svcEnd, d.svcSlice, d.svcElapsed,
					d.anchor, d.anchorPre, d.anchorStamp, met.DPNBusyTime(0)))
				for i, c := range ring {
					*log = append(*log, fmt.Sprintf("  %d rem=%v dead=%v", i, c.remaining, c.dead))
				}
				switch g.Intn(3) {
				case 0:
					d.slow = 1 + float64(g.Intn(3))/2 // the in-flight service keeps its speed
				case 1:
					ring[g.Intn(len(ring))].dead = true
				}
			}
		}
		if !reflect.DeepEqual(logs[0], logs[1]) {
			t.Fatalf("seed %d: skipping replay diverged\nskip: %v\nstep: %v", seed, logs[0], logs[1])
		}
	}
}

// setStepped puts every node of m on the quantum-stepped oracle engine (on)
// or the fast-forward engine. Call before Run; no other code selects the
// oracle.
func (m *Machine) setStepped(on bool) {
	for _, d := range m.dpns {
		d.stepped = on
	}
}

// ffDiffFaults is the full fault cocktail of the machine-level
// differentials: crashes, stragglers and message loss with retries.
var ffDiffFaults = fault.Config{
	MTBF: 80 * sim.Second, MTTR: 5 * sim.Second,
	StragglerMTBF: 150 * sim.Second, StragglerDuration: 10 * sim.Second, StragglerFactor: 3,
	MsgLoss: 0.03, MsgTimeout: 5 * sim.Second, MsgRetries: 2,
}

// ffDiffMachine builds one machine for the differential grid.
func ffDiffMachine(t *testing.T, name string, cfg Config, stepped bool, seed int64) *Machine {
	t.Helper()
	m, err := New(cfg, sched.MustNew(name, sched.DefaultParams()), workload.NewExp1(16), sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	m.setStepped(stepped)
	return m
}

// TestFFDiffSummaries compares end-of-run summaries for every scheduler over
// a DD ladder, failure-free and with the full fault cocktail.
func TestFFDiffSummaries(t *testing.T) {
	for _, name := range []string{"NODC", "ASL", "GOW", "LOW", "C2PL", "OPT"} {
		for _, dd := range []int{1, 2, 4, 16} {
			for _, withFaults := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.NumNodes = 16
				cfg.DD = dd
				cfg.ArrivalRate = 0.6
				cfg.Duration = 200_000 * sim.Millisecond
				if withFaults {
					cfg.Faults = ffDiffFaults
				}
				ff := ffDiffMachine(t, name, cfg, false, 7).Run()
				st := ffDiffMachine(t, name, cfg, true, 7).Run()
				if !reflect.DeepEqual(ff, st) {
					t.Errorf("%s DD=%d faults=%v diverged:\nff:      %+v\nstepped: %+v",
						name, dd, withFaults, ff, st)
				}
			}
		}
	}
}

// TestFFDiffTraces compares the full serialized event traces — every
// dispatch, grant, block, commit, restart and fault record in order — so an
// event-ordering difference that happens not to move the summary still
// fails.
func TestFFDiffTraces(t *testing.T) {
	run := func(name string, dd int, withFaults, stepped bool) []byte {
		cfg := DefaultConfig()
		cfg.NumNodes = 16
		cfg.DD = dd
		cfg.ArrivalRate = 0.6
		cfg.Duration = 200_000 * sim.Millisecond
		if withFaults {
			cfg.Faults = ffDiffFaults
		}
		m := ffDiffMachine(t, name, cfg, stepped, 11)
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		m.SetObserver(w)
		m.Run()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name   string
		dd     int
		faults bool
	}{
		{"NODC", 1, false}, {"GOW", 2, false}, {"LOW", 4, false},
		{"ASL", 16, false}, {"GOW", 2, true}, {"OPT", 4, true},
	} {
		ff := run(tc.name, tc.dd, tc.faults, false)
		st := run(tc.name, tc.dd, tc.faults, true)
		if !bytes.Equal(ff, st) {
			t.Errorf("%s DD=%d faults=%v: traces differ (%d vs %d bytes)",
				tc.name, tc.dd, tc.faults, len(ff), len(st))
		}
	}
}

// batchScanFaults is the fault cocktail of the batch-scan runs. At DD 16
// every transaction has a cohort on every node, so a node crash aborts all
// of them: a per-node MTBF of 2000 s with jittered restarts lets most
// transactions commit. MsgDelay jitters each delivery by a few tens of
// microseconds, so a step's cohorts land at a mix of instants: most alone,
// some sharing one with the cohort placed before them.
var batchScanFaults = fault.Config{
	MTBF: 2000 * sim.Second, MTTR: 5 * sim.Second,
	StragglerMTBF: 150 * sim.Second, StragglerDuration: 10 * sim.Second, StragglerFactor: 3,
	MsgLoss: 0.01, MsgDelay: 20 * sim.Microsecond, MsgTimeout: 5 * sim.Second, MsgRetries: 2,
}

// batchScanCase is one machine-level run of the benchmark configuration.
type batchScanCase struct {
	name string
	cfg  Config
}

// batchScanCases are the benchmark configuration's machine-level runs:
// whole-file 32-object scans at full declustering, where a cohort coalesces
// the most quanta per completion event and a replay skips the most whole
// rounds. They run failure-free, with stragglers alone (which change
// service speed mid-round while transactions still commit), and with the
// whole fault cocktail over a longer window.
func batchScanCases() []batchScanCase {
	base := DefaultConfig()
	base.NumNodes, base.DD = 16, 16
	base.ArrivalRate = 0.15
	base.Duration = 200_000 * sim.Millisecond
	stragglers := base
	stragglers.Faults = fault.Config{StragglerMTBF: batchScanFaults.StragglerMTBF,
		StragglerDuration: batchScanFaults.StragglerDuration, StragglerFactor: batchScanFaults.StragglerFactor}
	cocktail := base
	cocktail.Duration = 1000 * sim.Second
	cocktail.RestartDelay, cocktail.RestartJitter = 5*sim.Second, true
	cocktail.Faults = batchScanFaults
	return []batchScanCase{{"failure-free", base}, {"stragglers", stragglers}, {"fault cocktail", cocktail}}
}

// runBatchScan runs GOW on one batch-scan configuration and returns its
// summary and JSONL execution trace.
func runBatchScan(t *testing.T, cfg Config, stepped bool) (metrics.Summary, []byte) {
	t.Helper()
	m, err := New(cfg, sched.MustNew("GOW", sched.DefaultParams()), workload.NewBatchScan(16, 32), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	m.setStepped(stepped)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	m.SetObserver(w)
	sum := m.Run()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sum, buf.Bytes()
}

// TestFFDiffBatchScan covers the benchmark configuration itself: every
// batch-scan case must trace byte-identically under both engines.
func TestFFDiffBatchScan(t *testing.T) {
	for _, tc := range batchScanCases() {
		ffSum, ff := runBatchScan(t, tc.cfg, false)
		_, st := runBatchScan(t, tc.cfg, true)
		if !bytes.Equal(ff, st) {
			t.Errorf("batch-scan %s: traces differ (%d vs %d bytes)", tc.name, len(ff), len(st))
		}
		if tc.cfg.Faults.MTBF > 0 && ffSum.Completions < 100 {
			t.Errorf("batch-scan %s: %d commits, want at least 100 for the trace to exercise DPN timing",
				tc.name, ffSum.Completions)
		}
	}
}

// TestDPNDropDeadRunCursor is the regression test for batched dead-cohort
// removal: several consecutive (and wrapping) dead cohorts must be spliced
// out without corrupting the rotation cursor, under both engines.
func TestDPNDropDeadRunCursor(t *testing.T) {
	for _, stepped := range []bool{false, true} {
		eng := sim.NewEngine()
		met := metrics.NewCollector(1, 0)
		d := newDPN(0, eng, met)
		d.stepped = stepped
		q := 100 * sim.Millisecond
		var order []string
		mk := func(id string, rem sim.Time) *cohort {
			c := &cohort{remaining: rem, quantum: q}
			c.done = func() { order = append(order, fmt.Sprintf("%s@%v", id, eng.Now())) }
			d.add(c)
			return c
		}
		// Ring: A B C D E, added at t=0. After A's first quantum, kill B, C
		// (consecutive run after the cursor) and E (wrapping run), leaving
		// A and D to alternate.
		a := mk("A", 250*sim.Millisecond)
		b := mk("B", 400*sim.Millisecond)
		c := mk("C", 400*sim.Millisecond)
		e4 := mk("D", 150*sim.Millisecond)
		e5 := mk("E", 400*sim.Millisecond)
		_ = a
		eng.Schedule(150*sim.Millisecond, func(now sim.Time) {
			d.sync() // boundaries before the mark served the cohorts live
			b.dead = true
			c.dead = true
			e5.dead = true
			d.deadMarked()
		})
		_ = e4
		eng.Run(1 << 40)
		d.flush(1 << 40)
		// A runs 0-100, then B 100-200 (killed mid-service at 150, it still
		// burns its booked quantum), C is dropped for free at 200, D runs
		// 200-300, E is dropped for free at 300, A 300-400, D's final slice
		// 400-450, A's final slice 450-500 (times in ms).
		want := []string{"D@0.450s", "A@0.500s"}
		if len(order) != len(want) {
			t.Fatalf("stepped=%v: completions %v, want %v", stepped, order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("stepped=%v: completions %v, want %v", stepped, order, want)
			}
		}
		if got := d.queueLen(); got != 0 {
			t.Fatalf("stepped=%v: ring not empty at end: %d", stepped, got)
		}
		if d.cur != 0 {
			t.Fatalf("stepped=%v: cursor not reset: %d", stepped, d.cur)
		}
	}
}
