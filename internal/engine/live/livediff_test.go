package live_test

// Differential sim-vs-live validation (DESIGN.md §12): the same batch is
// driven through the virtual-clock simulator and the live goroutine backend
// with the same scheduler, and the scheduler-protocol call logs must agree
// on the deterministic prefix — the initial admission sweep and its
// grant/wake cascades, which both backends order by the identical CN FIFO
// queue discipline. On top of that, every live history must be
// conflict-serializable and both backends must commit the whole batch.
//
// The simulator side zeroes all CN CPU costs so the entire sweep happens at
// virtual t=0, strictly before the earliest cohort completion (service >=
// 50ms of virtual time); the live side achieves the same separation
// structurally, by draining the CN's internal job queue before consuming
// any DPN completion. Decisions made after completions feed back are
// timing-dependent under live execution and are deliberately out of scope
// (again DESIGN.md §12).

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"batchsched/internal/engine"
	"batchsched/internal/engine/live"
	"batchsched/internal/history"
	"batchsched/internal/machine"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// diffSeeds is the number of randomized workloads each scheduler is
// differentially tested on (satellite requirement: >= 200; -short trims).
var diffSeeds = flag.Int("diffseeds", 200, "seeded workloads per scheduler in TestSimVsLiveDecisions")

// diffSchedulers are the schedulers under differential test. LOW-LB is
// excluded: its decisions read live DPN queue lengths, which are
// timing-dependent by design and cannot match the simulator's probe.
var diffSchedulers = []string{"NODC", "ASL", "GOW", "LOW", "C2PL", "C2PL+M", "OPT", "2PL"}

// zeroCPUParams removes all scheduler CPU costs so the simulator's
// admission sweep completes at virtual t=0.
func zeroCPUParams() sched.Params {
	p := sched.DefaultParams()
	p.DDTime, p.KWTPGTime, p.ChainTime, p.TopTime = 0, 0, 0, 0
	p.MPL = 3 // gives C2PL+M a real admission limit to differ on
	return p
}

// randomBatch generates a random contended batch: 1-4 steps per
// transaction over numFiles files, mixed S/X modes, fractional costs.
// Costs stay >= 0.2 objects so the earliest simulated completion (>= 50ms
// at DD <= 4) lands strictly after the t=0 admission sweep. A transaction
// locks each file at the strongest mode it will ever need on it (the
// paper's Xr declarations do the same): incremental S-then-X upgrades
// livelock plain 2PL — two readers aborting each other's upgrade forever —
// and the paper's transaction model deliberately excludes them.
func randomBatch(rng *sim.RNG, numFiles, n int) [][]model.Step {
	out := make([][]model.Step, n)
	for i := range out {
		steps := make([]model.Step, 1+rng.Intn(4))
		strongest := make(map[model.FileID]model.Mode)
		for j := range steps {
			write := rng.Float64() < 0.5
			mode := model.S
			if write || rng.Float64() < 0.5 {
				mode = model.X // Xr steps as in Experiment 1
			}
			cost := 0.2 + 2.8*rng.Float64()
			steps[j] = model.Step{
				File:         model.FileID(rng.Intn(numFiles)),
				Write:        write,
				LockMode:     mode,
				Cost:         cost,
				DeclaredCost: cost,
			}
			if mode == model.X {
				strongest[steps[j].File] = model.X
			}
		}
		for j := range steps {
			if strongest[steps[j].File] == model.X {
				steps[j].LockMode = model.X
			}
		}
		out[i] = steps
	}
	return out
}

// decision is one scheduler-protocol call the control node made and its
// result, with no timestamps: the sequence of decisions is what a backend
// drove the scheduler through, independent of when each call happened.
type decision struct {
	// op is the call's event: EvAdmit, EvRequest, EvValidate, EvCommit, or
	// EvAbort for the release of an aborted or evicted attempt.
	op   engine.EventKind
	txn  int64
	step int // the transaction's StepIndex at call time
	// file and mode identify the requested lock (requests only; -1/"").
	file int
	mode string
	// result is "ok"/"reject" for admits and validates, the decision name
	// for requests, and "" for commits and aborts.
	result string
}

// String renders the decision compactly, e.g. "request T3/1 X(f5) -> grant".
func (d decision) String() string {
	switch d.op {
	case engine.EvRequest:
		return fmt.Sprintf("request T%d/%d %s(f%d) -> %s", d.txn, d.step, d.mode, d.file, d.result)
	case engine.EvAdmit:
		return fmt.Sprintf("admit T%d -> %s", d.txn, d.result)
	case engine.EvValidate:
		return fmt.Sprintf("validate T%d -> %s", d.txn, d.result)
	case engine.EvCommit:
		return fmt.Sprintf("committed T%d", d.txn)
	}
	return fmt.Sprintf("aborted T%d", d.txn)
}

// decisionLog is the observer that projects a run's events onto the
// scheduler calls they report: the admission test, a lock request,
// validation, the commit, and the release of an aborted or evicted
// attempt. Beside each decision it marks how many audit entries the
// scheduler had emitted once the call returned, so marks[i-1] is the
// length of the audit prefix the first i calls generated.
type decisionLog struct {
	audit     *obs.Audit
	decisions []decision
	marks     []int
}

func (l *decisionLog) Event(ev engine.Event) {
	d := decision{op: ev.Kind, file: -1}
	switch ev.Kind {
	case engine.EvAdmit, engine.EvValidate:
		d.result = "reject"
		if ev.OK {
			d.result = "ok"
		}
	case engine.EvRequest:
		st := ev.Txn.CurrentStep()
		d.file, d.mode, d.result = int(st.File), st.LockMode.String(), ev.Decision.String()
	case engine.EvEvict:
		d.op = engine.EvAbort // the scheduler's Aborted call
	case engine.EvCommit, engine.EvAbort:
	default:
		return // not a scheduler call
	}
	d.txn, d.step = ev.Txn.ID, ev.Txn.StepIndex
	l.decisions = append(l.decisions, d)
	l.marks = append(l.marks, len(l.audit.Entries()))
}

// deterministicPrefix returns the length of the leading run of decisions
// that is identical across backends for the same submitted batch:
// everything before the first decision whose timing can depend on a
// data-processing-node completion. Admissions and step-0 requests in the
// initial control-node sweep, with the grant/wake cascades they trigger,
// are ordered purely by the CN's FIFO queue discipline, which both
// backends implement identically. The first validate, commit, abort or
// step>0 request marks the point where a cohort completion, whose arrival
// order is timing-dependent under live execution, has fed back into
// scheduling.
func deterministicPrefix(ds []decision) int {
	for i, d := range ds {
		switch d.op {
		case engine.EvValidate, engine.EvCommit, engine.EvAbort:
			return i
		case engine.EvRequest:
			if d.step > 0 {
				return i
			}
		}
	}
	return len(ds)
}

func TestDeterministicPrefix(t *testing.T) {
	adm := decision{op: engine.EvAdmit, txn: 1, file: -1, result: "ok"}
	req0 := decision{op: engine.EvRequest, txn: 1, step: 0, file: 0, mode: "X", result: "grant"}
	req1 := decision{op: engine.EvRequest, txn: 1, step: 1, file: 1, mode: "X", result: "grant"}
	val := decision{op: engine.EvValidate, txn: 1, file: -1, result: "ok"}
	com := decision{op: engine.EvCommit, txn: 1, file: -1}
	abo := decision{op: engine.EvAbort, txn: 1, file: -1}

	cases := []struct {
		name string
		ds   []decision
		want int
	}{
		{"empty", nil, 0},
		{"sweep only", []decision{adm, req0, adm, req0}, 4},
		{"cut at validate", []decision{adm, req0, val, com}, 2},
		{"cut at step>0 request", []decision{adm, req0, req1, val}, 2},
		{"cut at abort", []decision{adm, req0, abo, adm}, 2},
		{"cut at committed", []decision{adm, com}, 1},
	}
	for _, c := range cases {
		if got := deterministicPrefix(c.ds); got != c.want {
			t.Errorf("%s: deterministicPrefix = %d, want %d", c.name, got, c.want)
		}
	}
}

// diffRun is one backend's observed execution.
type diffRun struct {
	decisions []decision
	marks     []int
	audit     []obs.AuditEntry
	rec       *history.Recorder
	commits   int
	restarts  int
}

// runSimDiff and runLiveDiff run batch on one backend. origin names where
// the batch came from (its generator seed and stream), and every failure
// they report carries it with the scheduler, so a failing batch can be
// regenerated as a regression case.
func runSimDiff(t *testing.T, name, origin string, numFiles, dd int, batch [][]model.Step) diffRun {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.NumNodes = 4
	cfg.NumFiles = numFiles
	cfg.DD = dd
	cfg.ArrivalRate = 0
	cfg.MsgTime, cfg.SOTTime, cfg.COTTime, cfg.NetDelay = 0, 0, 0, 0
	cfg.Duration = 4 * 3_600_000 * sim.Millisecond // horizon, not a target
	// With zero CPU costs a 2PL deadlock victim restarts at the very
	// instant its conflictors re-request, and high-contention batches can
	// thrash restarts forever (the pathology the paper's batch schedulers
	// exist to prevent). Spacing restarts out breaks those cycles; it
	// cannot affect the compared decision prefix, which by definition ends
	// at the first abort.
	// The delay must exceed a step's service time (0.2-3 objects at 1s per
	// object) or victims rejoin before survivors progress and the orbit
	// persists regardless of jitter.
	cfg.RestartDelay = 4 * sim.Second
	cfg.RestartJitter = true
	m, err := machine.New(cfg, sched.MustNew(name, zeroCPUParams()), nil, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	o.SetSampleInterval(0)
	m.SetObs(o)
	dl := &decisionLog{audit: o.Audit()}
	m.SetObserver(dl)
	rec := history.New()
	if name == "OPT" {
		rec = history.NewDeferredWrites()
	}
	m.SetObserver(rec)
	for _, steps := range batch {
		m.Submit(steps)
	}
	sum := m.RunClosed(cfg.Duration)
	if m.InFlight() != 0 {
		t.Fatalf("sim %s, %s: %d transactions still in flight at horizon", name, origin, m.InFlight())
	}
	return diffRun{
		decisions: dl.decisions, marks: dl.marks, audit: o.Audit().Entries(),
		rec: rec, commits: sum.Completions, restarts: sum.Restarts,
	}
}

func runLiveDiff(t *testing.T, name, origin string, numFiles, dd int, batch [][]model.Step) diffRun {
	t.Helper()
	cfg := live.DefaultConfig()
	cfg.NumNodes = 4
	cfg.NumFiles = numFiles
	cfg.DD = dd
	cfg.RowsPerObject = 32
	cfg.Deadline = 60 * time.Second
	// Same role as the sim side's RestartDelay: break 2PL restart livelock
	// (a victim instantly re-acquiring the locks its abort just released).
	cfg.RestartDelay = 10 * time.Millisecond
	cfg.RestartJitter = true
	b, err := live.New(cfg, sched.MustNew(name, zeroCPUParams()))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	o.SetSampleInterval(0)
	b.SetObs(o)
	dl := &decisionLog{audit: o.Audit()}
	b.SetObserver(dl)
	rec := history.New()
	if name == "OPT" {
		rec = history.NewDeferredWrites()
	}
	rec.SetMonotone(true)
	b.SetObserver(rec)
	for _, steps := range batch {
		b.Submit(steps)
	}
	sum := b.Run()
	if err := b.Err(); err != nil {
		t.Fatalf("live %s, %s: %v", name, origin, err)
	}
	if name != "NODC" && name != "OPT" {
		if v := b.Violations(); v != 0 {
			t.Fatalf("live %s, %s: %d lock-guard violations", name, origin, v)
		}
	}
	return diffRun{
		decisions: dl.decisions, marks: dl.marks, audit: o.Audit().Entries(),
		rec: rec, commits: sum.Completions, restarts: sum.Restarts,
	}
}

// comparePrefix asserts the two decision logs agree on the deterministic
// prefix and returns its length.
func comparePrefix(t *testing.T, name string, n int, s, l diffRun) int {
	t.Helper()
	ps, pl := deterministicPrefix(s.decisions), deterministicPrefix(l.decisions)
	p := ps
	if pl < p {
		p = pl
	}
	// Every admission of the initial sweep, and at least the first lock
	// request, must be inside the compared region — otherwise the test
	// would pass vacuously.
	if p < n+1 && name != "2PL" {
		t.Fatalf("%s: deterministic prefix %d too short (batch %d)", name, p, n)
	}
	for i := 0; i < p; i++ {
		if s.decisions[i] != l.decisions[i] {
			t.Fatalf("%s: decision %d differs:\n  sim:  %v\n  live: %v", name, i, s.decisions[i], l.decisions[i])
		}
	}
	return p
}

// compareAudit asserts GOW/LOW produced identical audit streams (candidate
// sets, E(q)/E(p) estimates, orientation notes) over the deterministic
// decision prefix, ignoring only the timestamps.
func compareAudit(t *testing.T, name string, p int, s, l diffRun) {
	t.Helper()
	if p == 0 {
		return
	}
	k := s.marks[p-1]
	if lk := l.marks[p-1]; lk != k {
		t.Fatalf("%s: audit prefix lengths differ: sim %d, live %d", name, k, lk)
	}
	for i := 0; i < k; i++ {
		a, b := s.audit[i], l.audit[i]
		a.AtMS, b.AtMS = 0, 0
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("%s: audit entry %d differs:\n  sim:  %+v\n  live: %+v", name, i, a, b)
		}
	}
}

// TestSimVsLiveDecisions is the headline differential suite: >= 200 seeded
// workloads, every scheduler, both backends. Asserts per seed:
//   - identical decision logs over the deterministic prefix (admissions,
//     step-0 grants/blocks/delays and their wake cascades),
//   - identical GOW/LOW audit streams (orientation decisions) over that
//     prefix,
//   - both backends commit the whole batch,
//   - every live history is conflict-serializable (NODC excepted).
func TestSimVsLiveDecisions(t *testing.T) {
	seeds := *diffSeeds
	if testing.Short() {
		seeds = 25
	}
	for _, name := range diffSchedulers {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				rng := sim.NewRNG(int64(1000 + seed)).Stream("diff")
				numFiles := 3 + rng.Intn(8)
				dd := 1 + rng.Intn(3)
				n := 8 + rng.Intn(9)
				batch := randomBatch(rng, numFiles, n)
				origin := fmt.Sprintf(`seed %d (batch from sim.NewRNG(%d).Stream("diff"))`, seed, 1000+seed)

				s := runSimDiff(t, name, origin, numFiles, dd, batch)
				l := runLiveDiff(t, name, origin, numFiles, dd, batch)

				if s.commits != n {
					t.Fatalf("seed %d: sim committed %d/%d", seed, s.commits, n)
				}
				if l.commits != n {
					t.Fatalf("seed %d: live committed %d/%d", seed, l.commits, n)
				}
				p := comparePrefix(t, fmt.Sprintf("%s seed %d", name, seed), n, s, l)
				if name == "GOW" || name == "LOW" {
					compareAudit(t, fmt.Sprintf("%s seed %d", name, seed), p, s, l)
				}
				if name != "NODC" {
					if err := s.rec.CheckSerializable(); err != nil {
						t.Fatalf("seed %d: sim history: %v", seed, err)
					}
					if err := l.rec.CheckSerializable(); err != nil {
						t.Fatalf("seed %d: live history: %v", seed, err)
					}
				}
			}
		})
	}
}

// TestSimVsLiveAdmittedSets pins the coarser invariant the tentpole names
// explicitly — for identical workloads, the *admitted transaction sets* of
// the initial sweep are identical across backends — on a larger batch than
// the per-seed runs use.
func TestSimVsLiveAdmittedSets(t *testing.T) {
	rng := sim.NewRNG(42).Stream("admitted")
	// 16 files keeps contention moderate: 40 all-X transactions on very few
	// files thrash plain 2PL into a restart storm that never drains (the
	// paper's Figure-style thrashing regime), which is not what this test
	// is probing.
	batch := randomBatch(rng, 16, 40)
	const origin = `batch from sim.NewRNG(42).Stream("admitted")`
	for _, name := range diffSchedulers {
		s := runSimDiff(t, name, origin, 16, 2, batch)
		l := runLiveDiff(t, name, origin, 16, 2, batch)
		admitted := func(r diffRun) []string {
			var out []string
			for _, d := range r.decisions[:deterministicPrefix(r.decisions)] {
				if d.op == engine.EvAdmit {
					out = append(out, fmt.Sprintf("T%d=%s", d.txn, d.result))
				}
			}
			return out
		}
		sa, la := admitted(s), admitted(l)
		if fmt.Sprintf("%v", sa) != fmt.Sprintf("%v", la) {
			t.Fatalf("%s: admitted sets differ:\n  sim:  %v\n  live: %v", name, sa, la)
		}
		if len(sa) == 0 {
			t.Fatalf("%s: no admissions observed", name)
		}
	}
}
