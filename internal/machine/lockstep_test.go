package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"batchsched/internal/fault"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/trace"
	"batchsched/internal/workload"
)

// lockstepRings runs one batch-scan case (batchScanCases) with a probe
// every 10 ms of virtual time and returns the most distinct busy rings it
// saw at once and the fewest members of a busy ring. The probe reads ring
// membership only, so it perturbs no ring.
func lockstepRings(t *testing.T, cfg Config) (maxRings, minMembers int) {
	t.Helper()
	m, err := New(cfg, sched.MustNew("GOW", sched.DefaultParams()), workload.NewBatchScan(16, 32), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	minMembers = len(m.dpns)
	rings := make(map[*ffRing]bool)
	var probe sim.Handler
	probe = func(sim.Time) {
		clear(rings)
		for _, d := range m.dpns {
			if d.busy {
				rings[d.ffRing] = true
				minMembers = min(minMembers, len(d.members))
			}
		}
		maxRings = max(maxRings, len(rings))
		m.eng.Schedule(10*sim.Millisecond, probe)
	}
	m.eng.Schedule(0, probe)
	if sum := m.Run(); sum.Completions == 0 {
		t.Fatal("run committed nothing")
	}
	return maxRings, minMembers
}

// TestLockstepRingsShare checks that fully declustered nodes share one
// ring. Failure-free, each of a batch-scan step's 16 cohorts lands on a
// node in lockstep with the other 15, so a step costs one delivery and one
// completion event: about 15 calendar events per commit (the control
// node's ~11 plus both per step, and more in a run this short), where one
// completion event per cohort makes it 45. Stragglers slow one node at a
// time, which must split it off.
func TestLockstepRingsShare(t *testing.T) {
	cases := batchScanCases()
	free, stragglers := cases[0].cfg, cases[1].cfg

	m, err := New(free, sched.MustNew("GOW", sched.DefaultParams()), workload.NewBatchScan(16, 32), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	sum := m.Run()
	if perCommit := float64(m.eng.Executed()) / float64(sum.Completions); perCommit > 20 {
		t.Errorf("failure-free batch-scan: %.2f events per commit (%d events, %d commits), want at most 20",
			perCommit, m.eng.Executed(), sum.Completions)
	}
	if rings, members := lockstepRings(t, free); rings != 1 || members != 16 {
		t.Errorf("failure-free batch-scan: up to %d busy rings, smallest %d members; want one ring of all 16 nodes",
			rings, members)
	}
	if rings, members := lockstepRings(t, stragglers); rings < 2 || members == 16 {
		t.Errorf("batch-scan with stragglers: up to %d busy rings, smallest %d members; a toggle must split a ring",
			rings, members)
	}
}

// TestLockstepStampsCountEveryMember lands one step on four idle nodes of
// eight, which then share one ring, and checks what the shared events
// stand for: the delivery and the completion are one calendar event each
// but advance the tie-key stamp count (ffRing.stamp) by one per cohort, as one
// event per cohort would, and the members complete in placement order,
// the order their own events would have fired in.
func TestLockstepStampsCountEveryMember(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumNodes, cfg.DD, cfg.ArrivalRate = 8, 4, 0
	m, err := New(cfg, sched.MustNew("NODC", sched.DefaultParams()), nil, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	run := &stepRun{pending: cfg.DD}
	var chain []*cohort
	var done []int
	for k := 0; k < cfg.DD; k++ {
		d := m.dpns[(6+k)%cfg.NumNodes]
		d.complete = func(*cohort) { done = append(done, d.id) }
		c := &cohort{remaining: 300 * sim.Millisecond, quantum: 250 * sim.Millisecond, run: run, node: d}
		if k > 0 {
			chain[k-1].next = c
		}
		chain = append(chain, c)
	}
	m.eng.SchedulePayload(0, m.onDeliver, chain[0])
	m.eng.Step(1)
	if r := m.dpns[6].ffRing; len(r.members) != cfg.DD || m.dpns[1].ffRing != r {
		t.Fatalf("the delivery formed a ring of %d members, want all %d nodes", len(r.members), cfg.DD)
	}
	m.eng.Run(sim.Second)
	if got, want := m.eng.Executed(), uint64(2); got != want {
		t.Errorf("%d calendar events, want %d (one delivery, one completion)", got, want)
	}
	if got, want := m.dpns[0].stamp(), uint64(2*cfg.DD); got != want {
		t.Errorf("stamp count %d after the step, want %d (one per cohort delivery and completion)", got, want)
	}
	if want := []int{6, 7, 0, 1}; !slices.Equal(done, want) {
		t.Errorf("nodes completed in order %v, want the placement order %v", done, want)
	}
}

// TestLockstepDeadInFlightServesAlone kills the in-flight cohort of a
// ring shared by four nodes, while a longer step waits behind it as the
// ring's second element, as under RunToCompletion. The dead service's
// boundary, not yet replayed, then anchors the next completion's tie key
// at the stamp of the event that marked it, the same on every node: the
// members must serve alone from then on, each booking its own completion
// under that one key, exactly as a ring per node would.
func TestLockstepDeadInFlightServesAlone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumNodes, cfg.DD, cfg.ArrivalRate = 8, 4, 0
	m, err := New(cfg, sched.MustNew("NODC", sched.DefaultParams()), nil, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	nodes := m.dpns[2 : 2+cfg.DD]
	var done []int
	for _, d := range nodes {
		d.complete = func(*cohort) { done = append(done, d.id) }
	}
	step := func(at, service sim.Time) *stepRun {
		run := &stepRun{pending: cfg.DD}
		for k, d := range nodes {
			c := &cohort{remaining: service, quantum: service, run: run, node: d}
			if k > 0 {
				run.cohorts[k-1].next = c
			}
			run.cohorts = append(run.cohorts, c)
		}
		m.eng.SchedulePayload(at, m.onDeliver, run.cohorts[0])
		return run
	}
	first := step(0, 200*sim.Millisecond)
	step(10*sim.Millisecond, 500*sim.Millisecond)
	m.eng.Schedule(100*sim.Millisecond, func(sim.Time) { m.killCohorts(first) })
	m.eng.Run(150 * sim.Millisecond)
	for _, d := range nodes {
		if len(d.members) != 1 || d.ffEvent == nil {
			t.Fatalf("node %d: %d ring members, booked %v; want it alone with a booking", d.id, len(d.members), d.ffEvent != nil)
		}
		if want := (sim.TieKey{Q: 500 * sim.Millisecond, Anchor: 200 * sim.Millisecond, Stamp: nodes[0].ffTie.Stamp}); d.ffTie != want {
			t.Errorf("node %d: completion tie key %+v, want %+v", d.id, d.ffTie, want)
		}
	}
	m.eng.Run(sim.Second)
	if want := []int{2, 3, 4, 5}; !slices.Equal(done, want) {
		t.Errorf("nodes completed in order %v, want %v", done, want)
	}
}

// TestLockstepSteadyStateAllocFree pins the allocation audit of lockstep
// delivery on a warmed DD 16 machine: three steps on files with different
// home nodes cycle through the nodes, each landed as one delivery chain
// and handed back by the nodes' completion callback after a gap, so rings
// form, take rotated chains, drain and dissolve. A straggler toggle on one
// node splits its ring off every 40 ms. Stepping a window must not
// allocate, and a probe checks that the window saw every node idle and
// nodes in more than one ring.
func TestLockstepSteadyStateAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumNodes, cfg.DD, cfg.ArrivalRate = 16, 16, 0
	m, err := New(cfg, sched.MustNew("NODC", sched.DefaultParams()), nil, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	const demand = 40 * sim.Millisecond
	quantum := cfg.ObjTime / sim.Time(cfg.DD)
	type job struct {
		run     stepRun
		cohorts []*cohort
		gap     sim.Time
	}
	var jobs []*job
	for i, home := range []int{0, 5, 11} {
		j := &job{gap: sim.Time(30+40*i) * sim.Millisecond}
		j.run.pending = cfg.NumNodes
		for k := 0; k < cfg.NumNodes; k++ {
			c := &cohort{remaining: demand, quantum: quantum / 8, run: &j.run, node: m.dpns[(home+k)%cfg.NumNodes]}
			if k > 0 {
				j.cohorts[k-1].next = c
			}
			j.cohorts = append(j.cohorts, c)
		}
		jobs = append(jobs, j)
	}
	byRun := make(map[*stepRun]*job)
	for _, j := range jobs {
		byRun[&j.run] = j
	}
	done := func(c *cohort) {
		j := byRun[c.run]
		if j.run.pending--; j.run.pending > 0 {
			return
		}
		j.run.pending = cfg.NumNodes
		for _, c := range j.cohorts {
			c.remaining, c.sib = demand, nil
		}
		m.eng.SchedulePayload(j.gap, m.onDeliver, j.cohorts[0])
	}
	for _, d := range m.dpns {
		d.complete = done
	}
	for i, j := range jobs {
		m.eng.SchedulePayload(sim.Time(i)*sim.Millisecond, m.onDeliver, j.cohorts[0])
	}
	var toggle sim.Handler
	toggle = func(sim.Time) {
		d := m.dpns[7]
		if d.slow > 1 {
			d.setSlow(1)
		} else {
			d.setSlow(2)
		}
		m.eng.Schedule(40*sim.Millisecond, toggle)
	}
	m.eng.Schedule(40*sim.Millisecond, toggle)

	var idle, split int
	var probe sim.Handler
	probe = func(sim.Time) {
		busy, shared := false, false
		for _, d := range m.dpns {
			busy = busy || d.busy
			shared = shared || d.busy && len(d.members) > 1 && len(d.members) < cfg.NumNodes
		}
		if !busy {
			idle++
		}
		if shared {
			split++
		}
		m.eng.Schedule(5*sim.Millisecond, probe)
	}
	m.eng.Schedule(0, probe)

	horizon := sim.Time(0)
	step := func() {
		horizon += 2 * sim.Second
		for m.eng.Step(horizon) {
		}
	}
	step()
	idle, split = 0, 0
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("steady-state allocations: %v per window, want 0", avg)
	}
	if idle == 0 || split == 0 {
		t.Fatalf("steady-state loop probed %d idle and %d split instants, want both", idle, split)
	}
}

// TestLockstepRunToCompletionCrashes pins runs in which crashes kill a
// shared ring's in-flight cohort under RunToCompletion. There each step's
// cohorts get a quantum of their own length (Exp. 1 steps cost 0.2 to 5
// objects), so once the in-flight cohort is dead the next completion is
// another step's, and the dead service's boundary, whose length is not
// that step's quantum, anchors its tie key: deadMarked must serve the
// ring's members alone. Crashes every 100 s per node, with no message delay
// to break delivery chains apart, do that dozens of times a run. Each line
// is a run's commits, restarts and the SHA-256 of its JSONL trace,
// completion log (completionLog) and summary, as one ring per node
// produced them.
func TestLockstepRunToCompletionCrashes(t *testing.T) {
	for _, tc := range []struct {
		sched     string
		nodes, dd int
		seed      int64
		want      string
	}{
		{"GOW", 8, 3, 2, "commits 136 restarts 421 sha256 3885fc5cb44690ed3d82a24e20fa90cef2fd0b1fd18a520623ff151b98e8cd7a"},
		{"LOW", 8, 3, 4, "commits 147 restarts 215 sha256 2dba66051dc26618eaa47be307dbd493a0e5b807869e462a3c94c426e27d5fea"},
		{"C2PL", 16, 4, 3, "commits 152 restarts 454 sha256 42cad1a36b4ab301a305b1ae784018398b8d27c6adad3f172a6969ef3d34b89c"},
	} {
		cfg := DefaultConfig()
		cfg.NumNodes, cfg.DD, cfg.ArrivalRate = tc.nodes, tc.dd, 0.5
		cfg.Duration = 300 * sim.Second
		cfg.RunToCompletion = true
		cfg.RestartDelay = 2 * sim.Second
		cfg.Faults = fault.Config{MTBF: 100 * sim.Second, MTTR: 5 * sim.Second}
		m, err := New(cfg, sched.MustNew(tc.sched, sched.DefaultParams()), workload.NewExp1(16), sim.NewRNG(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		done := completionLog(m)
		var tr bytes.Buffer
		w := trace.NewWriter(&tr)
		m.SetObserver(w)
		sum := m.Run()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(tr.Bytes())
		h.Write(done.Bytes())
		h.Write(js)
		got := fmt.Sprintf("commits %d restarts %d sha256 %s", sum.Completions, sum.Restarts, hex.EncodeToString(h.Sum(nil)))
		if got != tc.want {
			t.Errorf("%s at %d nodes, DD %d, seed %d: %s, want %s", tc.sched, tc.nodes, tc.dd, tc.seed, got, tc.want)
		}
	}
}
