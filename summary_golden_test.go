package batchsched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"batchsched/internal/machine"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/trace"
)

// goldenSchedulers are the schedulers TestSummaryGolden pins.
var goldenSchedulers = []string{"NODC", "ASL", "GOW", "LOW", "C2PL", "C2PL+M", "OPT", "2PL"}

// goldenRun is one pinned simulator run: its summary, and for GOW/LOW the
// scheduler decision audit as JSONL. Service runs add the last epoch's
// snapshot; fault runs add the SHA-256 of the JSONL execution trace, which
// orders restarts, fault aborts, retries and fault transitions.
type goldenRun struct {
	Path      string
	Scheduler string
	Summary   Summary
	InFlight  int
	LastEpoch *EpochStats `json:",omitempty"`
	TraceSHA  string      `json:",omitempty"`
	Audit     []string    `json:",omitempty"`
}

// goldenPath builds one configuration of the pinned grid; closed is the
// batch a RunClosed path submits (nil for open runs).
type goldenPath struct {
	name   string
	cfg    Config
	gen    func() Generator
	closed [][]Step
	trace  bool
}

func goldenPaths() []goldenPath {
	exp1 := func() Generator { return NewExp1Workload(16) }

	open := obsConfig(200 * Second)

	svc := DefaultConfig()
	svc.ArrivalRate = 1.0
	svc.Duration = 300 * Second
	pol := DefaultAdmitPolicy()
	pol.EvictOnOverload = true
	pol.OverloadP95 = 2 * Second
	svc.Service = &pol

	faulty := obsConfig(300 * Second)
	faulty.ArrivalRate = 0.4
	faulty.RestartDelay = 5 * Second
	faulty.RestartJitter = true
	faulty.Faults = FaultConfig{
		MTBF: 60 * Second, MTTR: 5 * Second,
		StragglerMTBF: 40 * Second, StragglerDuration: 10 * Second, StragglerFactor: 3,
		MsgLoss: 0.02, MsgTimeout: 5 * Second, MsgRetries: 2,
	}

	closed := DefaultConfig()
	closed.ArrivalRate = 0
	closed.Duration = 4 * 3600 * Second // a horizon, not a target
	closed.RestartDelay = 4 * Second
	closed.RestartJitter = true

	return []goldenPath{
		{name: "exp1-open", cfg: open, gen: exp1},
		{name: "service-evict", cfg: svc, gen: func() Generator {
			return NewMixedWorkload(NewExp1Workload(16), 16, 0.5, 0.2)
		}},
		{name: "fault-cocktail", cfg: faulty, gen: exp1, trace: true},
		{name: "closed-64", cfg: closed, closed: GenerateBatch(NewExp1Workload(16), 1, 64)},
	}
}

// runGolden executes one (path, scheduler) cell at seed 1.
func runGolden(t *testing.T, p goldenPath, name string) goldenRun {
	t.Helper()
	cfg := p.cfg
	if cfg.Service != nil {
		pol := *cfg.Service
		cfg.Service = &pol
	}
	var gen Generator
	if p.gen != nil {
		gen = p.gen()
	}
	m, err := machine.New(cfg, sched.MustNew(name, DefaultParams()), gen, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	ob := NewObs()
	m.SetObs(ob)
	out := goldenRun{Path: p.name, Scheduler: name}
	if cfg.Service != nil {
		m.SetEpochHook(func(es EpochStats) { out.LastEpoch = &es })
	}
	var tbuf bytes.Buffer
	var tw *trace.Writer
	if p.trace {
		tw = trace.NewWriter(&tbuf)
		m.SetObserver(tw)
	}
	if p.closed != nil {
		for _, steps := range p.closed {
			m.Submit(steps)
		}
		out.Summary = m.RunClosed(cfg.Duration)
	} else {
		out.Summary = m.Run()
	}
	out.InFlight = m.InFlight()
	if tw != nil {
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(tbuf.Bytes())
		out.TraceSHA = hex.EncodeToString(sum[:])
	}
	if name == "GOW" || name == "LOW" {
		var abuf bytes.Buffer
		if err := ob.WriteAuditJSONL(&abuf); err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(abuf.Bytes()), []byte("\n")) {
			out.Audit = append(out.Audit, string(line))
		}
	}
	return out
}

// TestSummaryGolden pins the simulator's output in absolute terms: every
// scheduler at seed 1 on an Exp-1 open run, a service-mode run with
// eviction on overload, a crash+straggler+message-loss fault run and a
// closed 64-transaction batch. Regenerate after an intentional behaviour
// change with:
//
//	go test -run TestSummaryGolden -update-golden .
func TestSummaryGolden(t *testing.T) {
	var runs []goldenRun
	for _, p := range goldenPaths() {
		for _, name := range goldenSchedulers {
			runs = append(runs, runGolden(t, p, name))
		}
	}
	got, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "summaries.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		var old []goldenRun
		if err := json.Unmarshal(want, &old); err == nil && len(old) == len(runs) {
			for i := range runs {
				a, _ := json.Marshal(old[i])
				b, _ := json.Marshal(runs[i])
				if !bytes.Equal(a, b) {
					t.Errorf("%s/%s deviates from %s", runs[i].Path, runs[i].Scheduler, path)
				}
			}
		}
		t.Errorf("summaries deviate from %s (%d bytes vs %d); rerun with -update-golden if the change is intentional",
			path, len(got), len(want))
	}
}
