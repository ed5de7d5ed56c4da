package machine

import (
	"fmt"

	"batchsched/internal/admit"
	"batchsched/internal/engine"
	"batchsched/internal/fault"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// Generator produces the declared steps of successive transactions. It is
// implemented by package workload; the machine calls it once per arrival.
// An alias of engine.Generator, so workload generators feed every backend.
type Generator = engine.Generator

// Observer receives execution events, for history recording and invariant
// checks. An alias of engine.Observer: the same recorders plug into the
// simulator and the live backend.
type Observer = engine.Observer

// Machine is one execution backend (the virtual-clock simulator).
var _ engine.Backend = (*Machine)(nil)

// Machine is one Shared-Nothing machine simulation run: engine, control
// node, DPNs, scheduler and workload wired together. Create with New, then
// call Run once.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	met   *metrics.Collector
	gen   Generator
	place engine.Placement
	cn    *engine.CN
	dpns  []*dpn
	obs   Observer
	inj   *fault.Injector // nil on the failure-free path

	// ob is the observability layer; nil (the default) disables it, and
	// every hook is nil-receiver safe so the disabled path costs one
	// pointer check and no allocation.
	ob *obs.Observer

	arrivalRNG  *sim.RNG
	workloadRNG *sim.RNG
	classRNG    *sim.RNG          // service classes (service mode only)
	arrivals    workload.Arrivals // nil when no arrival process is configured

	nextID int64

	// cnCPU is the CPU time of the CN job in service: the CN is a single
	// server, so one completion event (onCNDone) is outstanding at a time.
	cnCPU sim.Time

	// Hot-path free lists (zero steady-state allocations per event): spent
	// stepRuns and their cohorts are recycled when a step completes cleanly;
	// fault-retired ones are deliberately leaked to the GC (a stale timer may
	// still reference them). cohortSlab batch-allocates cohorts; nodesBuf
	// backs Placement.NodesInto.
	runPool    []*stepRun
	cohortPool []*cohort
	cohortSlab []cohort
	nodesBuf   []int

	// Pre-bound event handlers: recurring events carry their state in a
	// pointer payload instead of a per-event closure.
	onArrival    sim.Handler
	onEpoch      sim.Handler
	onCNDone     sim.Handler
	onDeliver    sim.PayloadHandler // arg: *cohort
	onStepReturn sim.PayloadHandler // arg: *stepRun
	onRetryAdmit sim.PayloadHandler // arg: *engine.Exec
	onTimeout    sim.PayloadHandler // arg: *stepRun
}

// cnHost is the simulator side of the control-node core: virtual time, CN
// CPU served on the calendar, cohorts placed on the simulated DPNs, restart
// timers as calendar events.
type cnHost struct{ *Machine }

// Charge books the end of the job's CPU time on the calendar.
func (h cnHost) Charge(cpu sim.Time) {
	h.cnCPU = cpu
	h.eng.Schedule(cpu, h.onCNDone)
}

// Dispatch places the granted step's cohorts (placeStep).
func (h cnHost) Dispatch(e *engine.Exec, attempt int) { h.placeStep(e, attempt) }

// RestartAfter books the re-admission d from now.
func (h cnHost) RestartAfter(e *engine.Exec, d sim.Time) {
	h.eng.SchedulePayload(d, h.onRetryAdmit, e)
}

// New builds a machine. The scheduler must be fresh (one per run); rng
// seeds the arrival and workload streams.
func New(cfg Config, s sched.Scheduler, gen Generator, rng *sim.RNG) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("machine: nil scheduler")
	}
	eng := sim.NewEngine()
	met := metrics.NewCollector(cfg.NumNodes, cfg.Warmup)
	m := &Machine{
		cfg:         cfg,
		eng:         eng,
		met:         met,
		gen:         gen,
		place:       engine.Placement{NumNodes: cfg.NumNodes, DD: cfg.DD},
		arrivalRNG:  rng.Stream("arrivals"),
		workloadRNG: rng.Stream("workload"),
	}
	m.cn = engine.NewCN(engine.CNConfig{
		MPL:            cfg.MPL,
		MsgTime:        cfg.MsgTime,
		SOTTime:        cfg.SOTTime,
		COTTime:        cfg.COTTime,
		ChargeRetryCPU: cfg.ChargeRetryCPU,
		NoWakeOnGrant:  cfg.NoWakeOnGrant,
		RestartDelay:   cfg.RestartDelay,
		RestartJitter:  cfg.RestartJitter,
	}, cnHost{m}, s, met, rng.Stream("restart"))
	m.arrivals = cfg.Arrivals
	if m.arrivals == nil && cfg.ArrivalRate > 0 {
		m.arrivals = workload.Poisson{Rate: cfg.ArrivalRate}
	}
	if cfg.Service != nil {
		svc, err := admit.NewService(*cfg.Service)
		if err != nil {
			return nil, err
		}
		m.cn.EnableService(svc)
		m.classRNG = rng.Stream("class")
		m.onEpoch = func(now sim.Time) {
			m.cn.Epoch(now)
			m.eng.Schedule(svc.Policy().Epoch, m.onEpoch)
		}
	}
	m.dpns = make([]*dpn, cfg.NumNodes)
	for i := range m.dpns {
		m.dpns[i] = newDPN(i, eng, met)
		m.dpns[i].stepped = cfg.QuantumStepped
		m.dpns[i].complete = m.cohortFinished
	}
	m.onArrival = func(sim.Time) {
		steps := m.gen.Steps(m.workloadRNG)
		m.Submit(steps)
		m.scheduleNextArrival()
	}
	m.onCNDone = func(sim.Time) {
		m.met.CNBusy(m.cnCPU)
		m.cn.JobDone()
	}
	m.onDeliver = func(_ sim.Time, arg any) { m.deliverCohort(arg.(*cohort)) }
	m.onStepReturn = func(_ sim.Time, arg any) { m.stepReturn(arg.(*stepRun)) }
	m.onRetryAdmit = func(_ sim.Time, arg any) { m.cn.Readmit(arg.(*engine.Exec)) }
	m.onTimeout = func(_ sim.Time, arg any) {
		run := arg.(*stepRun)
		if run.dead {
			return
		}
		m.stepTimeout(run)
	}
	if la, ok := s.(sched.LoadAware); ok {
		la.SetLoadProbe(m.fileLoad)
	}
	if err := m.wireFaults(rng); err != nil {
		return nil, err
	}
	return m, nil
}

// fileLoad reports the mean number of resident cohorts across the nodes
// holding f's partitions — the congestion probe for load-aware schedulers.
func (m *Machine) fileLoad(f model.FileID) float64 {
	m.nodesBuf = m.place.NodesInto(f, m.nodesBuf)
	total := 0
	for _, n := range m.nodesBuf {
		total += m.dpns[n].queueLen()
	}
	return float64(total) / float64(len(m.nodesBuf))
}

// newStepRun starts a dispatch attempt, reusing a cleanly-retired stepRun
// (and its cohorts slice) when one is pooled.
func (m *Machine) newStepRun(e *engine.Exec, home, attempt int) *stepRun {
	if n := len(m.runPool); n > 0 {
		r := m.runPool[n-1]
		m.runPool[n-1] = nil
		m.runPool = m.runPool[:n-1]
		*r = stepRun{e: e, home: home, attempt: attempt, cohorts: r.cohorts[:0]}
		return r
	}
	return &stepRun{e: e, home: home, attempt: attempt}
}

// newCohort takes a cohort off the free list, batch-allocating a fresh slab
// when it runs dry so steady-state dispatches never hit the allocator.
func (m *Machine) newCohort() *cohort {
	if n := len(m.cohortPool); n > 0 {
		c := m.cohortPool[n-1]
		m.cohortPool[n-1] = nil
		m.cohortPool = m.cohortPool[:n-1]
		return c
	}
	if len(m.cohortSlab) == 0 {
		m.cohortSlab = make([]cohort, 64)
	}
	c := &m.cohortSlab[0]
	m.cohortSlab = m.cohortSlab[1:]
	return c
}

// retireRun recycles a dispatch attempt whose completion reached the CN
// (stepReturn). Such a run provably has no timer, cohort or in-flight event
// referencing it: every cohort has left its node's ring, retry timers are
// armed only when a message was lost, and a lost message always retires
// its attempt through the timeout path instead. Fault-retired runs are left
// to the GC.
func (m *Machine) retireRun(run *stepRun) {
	for i, c := range run.cohorts {
		run.cohorts[i] = nil
		*c = cohort{}
		m.cohortPool = append(m.cohortPool, c)
	}
	*run = stepRun{cohorts: run.cohorts[:0]}
	m.runPool = append(m.runPool, run)
}

// SetObserver installs an execution observer (history recorder etc.).
func (m *Machine) SetObserver(o Observer) {
	m.obs = o
	m.cn.SetObserver(o)
}

// SetObs attaches the virtual-time observability layer: spans over the
// transaction lifecycle, control-node jobs and DPN cohorts; counters,
// gauges and histograms in o's registry; and the scheduler decision audit
// where the scheduler supports it. Call before Run. A nil o is ignored —
// the layer stays disabled and the instrumented paths reduce to nil checks,
// leaving the event sequence (and thus the summary) identical to an
// unobserved run.
func (m *Machine) SetObs(o *obs.Observer) {
	if o == nil {
		return
	}
	m.ob = o
	m.cn.SetObs(o)
	for _, d := range m.dpns {
		d.ob = o
	}
	o.Gauge("cn_busy_ms", func() float64 { return m.met.CNBusyTime().Milliseconds() })
	for i := range m.dpns {
		i := i
		o.Gauge(fmt.Sprintf("dpn%d_queue", i), func() float64 { return float64(m.dpns[i].queueLen()) })
		o.Gauge(fmt.Sprintf("dpn%d_busy_ms", i), func() float64 {
			m.dpns[i].sync() // replay fast-forwarded boundaries into the collector
			return m.met.DPNBusyTime(i).Milliseconds()
		})
	}
}

// Engine exposes the simulation engine (for tests that drive time manually).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Now returns the current virtual time (engine.Clock).
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// Submit injects a transaction at the current virtual time (used by tests
// and by runs with ArrivalRate == 0). Steps are used as-is.
func (m *Machine) Submit(steps []model.Step) *model.Txn {
	m.nextID++
	t := model.NewTxn(m.nextID, m.eng.Now(), steps)
	var class admit.Class
	if svc := m.cn.Service(); svc != nil {
		class = svc.Policy().PickClass(m.classRNG)
	}
	m.cn.Arrive(t, class)
	return t
}

// Run executes the configured workload for cfg.Duration and returns the
// metrics summary.
func (m *Machine) Run() metrics.Summary {
	if m.inj != nil {
		m.inj.Start()
	}
	if m.arrivals != nil {
		if m.gen == nil {
			panic("machine: an arrival process needs a Generator")
		}
		m.scheduleNextArrival()
	}
	if svc := m.cn.Service(); svc != nil {
		m.eng.Schedule(svc.Policy().Epoch, m.onEpoch)
	}
	m.ob.StartSampling(m.eng)
	m.eng.RunUntil(m.cfg.Duration)
	// Fast-forward nodes may still hold an epoch tail whose quantum events
	// the stepped engine would have fired at (or before) the horizon; replay
	// it so busy accounting matches before anything is summarized.
	for _, d := range m.dpns {
		d.flush(m.cfg.Duration)
	}
	m.ob.Finish(m.eng.Now())
	return m.met.Summarize(m.cfg.Duration)
}

// RunClosed executes a closed batch: every transaction must already have
// been Submitted (ArrivalRate is ignored). Events are dispatched until the
// whole batch commits — or the calendar drains or the horizon passes,
// whichever is first — and the summary window is the makespan, so TPS is
// batch throughput. This is the simulator side of sim-vs-live differential
// runs, which are all closed batches (the live backend has no arrival
// process).
func (m *Machine) RunClosed(horizon sim.Time) metrics.Summary {
	if m.inj != nil {
		m.inj.Start()
	}
	m.ob.StartSampling(m.eng)
	for m.InFlight() > 0 && m.eng.Step(horizon) {
	}
	now := m.eng.Now()
	for _, d := range m.dpns {
		d.flush(now)
	}
	m.ob.Finish(now)
	return m.met.Summarize(now)
}

func (m *Machine) scheduleNextArrival() {
	gap := m.arrivals.Next(m.eng.Now(), m.arrivalRNG)
	m.eng.Schedule(gap, m.onArrival)
}

// placeStep dispatches one attempt of a granted step (attempt > 0 after
// message-timeout retries), once the CN send is paid: the step runs as DD
// cohorts of C/DD objects round-robin-interleaved at their nodes, and when
// the last cohort finishes the transaction returns to the CN. With faults
// enabled, the request message may be lost, deliveries pick up injected
// latency, and a crashed node aborts the transaction; the failure-free path
// schedules exactly the same events as before the fault subsystem existed.
func (m *Machine) placeStep(e *engine.Exec, attempt int) {
	st := e.Txn.CurrentStep()
	run := m.newStepRun(e, m.place.Home(st.File), attempt)
	if m.inj != nil && m.inj.MsgLost() {
		// The CN->DPN request vanished; the retry timer is the only way
		// forward.
		m.met.MsgLost()
		m.faultEvent("msgloss", run.home)
		m.armTimeout(run)
		return
	}
	m.nodesBuf = m.place.NodesInto(st.File, m.nodesBuf)
	service := sim.Time(float64(m.cfg.ObjTime) * st.Cost / float64(m.cfg.DD))
	quantum := m.cfg.ObjTime / sim.Time(m.cfg.DD)
	if m.cfg.RunToCompletion {
		// Ablation: FCFS cohort service — one quantum covers the whole
		// scan.
		quantum = service
		if quantum <= 0 {
			quantum = 1
		}
	}
	run.pending = len(m.nodesBuf)
	for _, n := range m.nodesBuf {
		c := m.newCohort()
		*c = cohort{remaining: service, quantum: quantum, run: run, node: m.dpns[n]}
		run.cohorts = append(run.cohorts, c)
		m.eng.SchedulePayload(m.msgDelay(), m.onDeliver, c)
	}
}

// deliverCohort lands one cohort on its data-processing node. A delivery to
// a down node means the step cannot proceed: the CN aborts the transaction
// (in the real machine the commit protocol detects the dead participant).
func (m *Machine) deliverCohort(c *cohort) {
	if c.run.dead {
		return
	}
	if c.node.down {
		m.faultEvent("msgloss", c.node.id)
		m.abortRun(c.run, "crash")
		return
	}
	c.node.add(c)
}

// cohortFinished is the DPN's completion callback for machine-owned cohorts.
func (m *Machine) cohortFinished(c *cohort) { m.cohortDone(c.run) }

// cohortDone counts down the attempt's cohorts; when the last finishes the
// transaction flows back to the CN after the network delay and one receive
// message (which may itself be lost).
func (m *Machine) cohortDone(run *stepRun) {
	if run.dead {
		return
	}
	run.pending--
	if run.pending > 0 {
		return
	}
	m.eng.SchedulePayload(m.msgDelay(), m.onStepReturn, run)
}

// stepReturn receives the last cohort's completion back at the CN.
func (m *Machine) stepReturn(run *stepRun) {
	if run.dead {
		return
	}
	if m.inj != nil && m.inj.MsgLost() {
		// The DPN->CN completion reply vanished; the CN will time out and
		// re-execute the step.
		m.met.MsgLost()
		m.faultEvent("msgloss", run.home)
		m.armTimeout(run)
		return
	}
	e := run.e
	m.retireRun(run)
	m.cn.StepReturned(e)
}

// InFlight reports how many submitted transactions have not yet committed
// (including pending admissions).
func (m *Machine) InFlight() int {
	return int(m.nextID) - m.cn.Completed()
}

// SetEpochHook installs a per-epoch callback (service mode only; the hook
// runs inside the epoch event, so it must not mutate the machine). Call
// before Run.
func (m *Machine) SetEpochHook(h func(admit.EpochStats)) { m.cn.SetEpochHook(h) }

// Service exposes the admission service (nil outside service mode), for
// end-of-run stats.
func (m *Machine) Service() *admit.Service { return m.cn.Service() }

// WaitReport lists who waits on what: every blocked or policy-delayed
// transaction with its file and that file's lock holders, then the park
// queue. It explains a run that stopped with transactions in flight.
func (m *Machine) WaitReport() string { return m.cn.WaitReport() }
