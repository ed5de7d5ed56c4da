// Package live is the real-execution backend: the same scheduler core the
// simulator drives, executed for real — one goroutine per data-processing
// node over an in-memory partitioned store, Go channels for CN<->DPN
// messaging, wall-clock round-robin service, and per-DPN lock tables
// (internal/lock) checking at the data that the scheduler's grants were
// compatible.
//
// The control node is one goroutine owning the scheduler, the metrics
// collector and every observer, so all of those stay single-threaded
// exactly as under simulation. It runs the simulator's control-node core
// (engine.CN) — the same job queue, protocol and wait queues — and drains
// that queue fully before consuming the next DPN completion. That
// discipline is what pins the scheduler-call order of the initial admission
// sweep and its grant/wake cascades to the simulator's, making sim-vs-live
// decision logs comparable (DESIGN.md §12).
//
// A live run is a closed batch (RunBatch: submit every transaction, drive
// the batch to commit, summarize at the makespan) or an open service run
// (RunService, see service.go). Both go through one CN select loop with one
// exit rule (CN.Done) and one stall rule (CN.Stuck); there is no fault
// injection.
package live

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"batchsched/internal/admit"
	"batchsched/internal/engine"
	"batchsched/internal/lock"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// Config parameterizes a live run. The machine-shape fields (NumNodes,
// NumFiles, DD) mean exactly what they mean in machine.Config; the
// execution fields replace virtual service times with real work.
type Config struct {
	// NumNodes is the number of data-processing nodes (goroutines).
	NumNodes int
	// NumFiles is the database size in files.
	NumFiles int
	// DD is the degree of declustering: a step of cost C runs as DD
	// cohorts of C/DD objects on consecutive nodes.
	DD int
	// MPL caps admitted-and-uncommitted transactions (0 = unlimited),
	// machine-level admission control as in machine.Config.
	MPL int
	// RowsPerObject sizes the store: each partition slab is one object of
	// this many rows, and a step of cost C scans C*RowsPerObject/DD rows
	// per cohort.
	RowsPerObject int
	// PacePerObject is a wall-time floor per object scanned (spread over
	// the 1/DD-object quanta). 0 runs compute-bound — as fast as the store
	// scan goes. Set it when service time should dominate scheduling
	// overhead, e.g. for throughput-ranking runs.
	PacePerObject time.Duration
	// RestartDelay holds an aborted transaction out of admission for this
	// much wall time before it retries, mirroring machine.Config's field of
	// the same name. Without it, a strict-2PL deadlock victim re-acquires
	// its first-step locks the instant they release, which can starve the
	// very conflictor its abort was supposed to unblock (restart livelock).
	// 0 retries immediately.
	RestartDelay time.Duration
	// RestartJitter randomizes each hold-back to uniform [0.5, 1.5) x
	// RestartDelay, exactly as machine.Config.RestartJitter: fixed delays
	// can phase-lock symmetric deadlock victims into a periodic restart
	// orbit. Ignored when RestartDelay is zero.
	RestartJitter bool
	// Deadline aborts a stalled run (lost completion, scheduler livelock)
	// instead of hanging the process; Err reports the stall. Default 30s.
	Deadline time.Duration
	// Service switches the backend into streaming-admission mode
	// (internal/admit; see service.go): use RunService instead of
	// Submit+Run. The window bound comes from Service.MPL, so MPL must be 0.
	Service *admit.Policy
	// ServiceDuration is the wall-time span of a service run (required in
	// service mode): arrivals stop after it and the run drains.
	ServiceDuration time.Duration
}

// DefaultConfig mirrors the simulator's machine shape (8 nodes, 16 files,
// DD 1) with a small store and compute-bound service.
func DefaultConfig() Config {
	return Config{
		NumNodes:      8,
		NumFiles:      16,
		DD:            1,
		RowsPerObject: 64,
		Deadline:      30 * time.Second,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumNodes < 1 {
		return fmt.Errorf("live: NumNodes must be >= 1, got %d", c.NumNodes)
	}
	if c.NumFiles < 1 {
		return fmt.Errorf("live: NumFiles must be >= 1, got %d", c.NumFiles)
	}
	if c.DD < 1 || c.DD > c.NumNodes {
		return fmt.Errorf("live: DD must be in [1, NumNodes=%d], got %d", c.NumNodes, c.DD)
	}
	if c.RowsPerObject < 1 {
		return fmt.Errorf("live: RowsPerObject must be >= 1, got %d", c.RowsPerObject)
	}
	if c.MPL < 0 {
		return fmt.Errorf("live: MPL must be >= 0, got %d", c.MPL)
	}
	if c.RestartDelay < 0 {
		return fmt.Errorf("live: RestartDelay must be >= 0, got %v", c.RestartDelay)
	}
	if c.Service != nil {
		if err := c.Service.Validate(); err != nil {
			return err
		}
		if c.MPL != 0 {
			return fmt.Errorf("live: service mode takes its window from Service.MPL; Config.MPL must be 0, got %d", c.MPL)
		}
		if c.ServiceDuration <= 0 {
			return fmt.Errorf("live: service mode needs ServiceDuration > 0, got %v", c.ServiceDuration)
		}
	}
	return nil
}

// nodeObs is one DPN as the CN sees it, for the observed run's per-node
// instruments: cohorts dispatched and not yet complete, and the busy time
// the node reported with its last completion.
type nodeObs struct {
	cohorts int
	busy    time.Duration
	rows    *obs.Counter
}

// liveRun is one step dispatch: DD cohorts in flight, counted down by
// completions.
type liveRun struct {
	e       *engine.Exec
	pending int
	rows    int // each cohort's rows
}

// Backend is one live run: build with New, then Submit a batch and call Run,
// or call RunService. All methods are driven from one goroutine (the
// caller's, which becomes the CN); only the DPN workers run concurrently.
type Backend struct {
	cfg   Config
	met   *metrics.Collector
	clk   *wallClock
	place engine.Placement
	cn    *engine.CN

	dpns     []*dpnWorker
	comp     chan completion
	wg       sync.WaitGroup
	nodesBuf []int

	restartQ chan *engine.Exec

	ob  *obs.Observer
	rec *engine.ObsRecorder // the CN's spans and instruments in ob
	// nodes is each DPN's state as the CN sees it (nil when unobserved),
	// which the registry's per-node instruments read: the DPN goroutines
	// themselves touch no instrument.
	nodes []nodeObs

	txns []*model.Txn

	nextID     int64
	checksum   uint64
	violations int
	cnBusy     time.Duration
	ran        bool
	err        error

	// schedName names the scheduler for errors; locking reports whether it
	// keeps a lock table (a non-nil Locks()), which makes a DPN guard
	// violation an error.
	schedName string
	locking   bool
}

// cnHost is the live side of the control-node core: wall time, CN CPU
// measured rather than charged (the loop drains the queue at once, see
// serve), cohorts sent to the DPN goroutines, restart timers on the wall
// clock.
type cnHost struct{ *Backend }

// Charge does nothing: the CN loop drains the queue right away.
func (cnHost) Charge(sim.Time) {}

// ChargesCPU is false: the CN's CPU is measured wall time (cn_busy_ms).
func (cnHost) ChargesCPU() bool { return false }

// Dispatch sends the granted step as DD cohorts to the file's nodes. The
// per-node inbox is sized for every active transaction, so these sends
// never block.
func (h cnHost) Dispatch(e *engine.Exec, _ int) {
	st := e.Txn.CurrentStep()
	run := &liveRun{e: e}
	h.nodesBuf = h.place.NodesInto(st.File, h.nodesBuf)
	run.pending = len(h.nodesBuf)
	rows := int(st.Cost*float64(h.cfg.RowsPerObject)/float64(h.cfg.DD) + 0.5)
	if rows < 1 {
		rows = 1
	}
	run.rows = rows
	for _, node := range h.nodesBuf {
		h.dpns[node].in <- &liveCohort{
			run: run, txn: e.Txn.ID, file: st.File,
			mode: st.LockMode, write: st.Write, rows: rows,
		}
		if h.nodes != nil {
			h.nodes[node].cohorts++
		}
	}
}

// RestartAfter hands e back to the CN's select loop after d of wall time.
func (h cnHost) RestartAfter(e *engine.Exec, d sim.Time) {
	time.AfterFunc(time.Duration(d)*time.Microsecond, func() { h.restartQ <- e })
}

// New builds a live backend. The scheduler must be fresh (one per run).
func New(cfg Config, s sched.Scheduler) (*Backend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("live: nil scheduler")
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	lt, ok := s.(interface{ Locks() *lock.Table })
	locking := ok && lt.Locks() != nil
	b := &Backend{
		cfg:       cfg,
		met:       metrics.NewCollector(cfg.NumNodes, 0),
		clk:       newWallClock(),
		place:     engine.Placement{NumNodes: cfg.NumNodes, DD: cfg.DD},
		schedName: s.Name(),
		locking:   locking,
	}
	// The CN's CPU is the wall clock, so it charges no modelled CPU times;
	// a sub-microsecond restart delay rounds up to one microsecond.
	b.cn = engine.NewCN(engine.CNConfig{
		MPL:           cfg.MPL,
		RestartDelay:  sim.Time((cfg.RestartDelay + time.Microsecond - 1) / time.Microsecond),
		RestartJitter: cfg.RestartJitter,
	}, cnHost{b}, s, b.met, sim.NewRNG(1).Stream("restart"))
	if cfg.Service != nil {
		svc, err := admit.NewService(*cfg.Service)
		if err != nil {
			return nil, err
		}
		b.cn.EnableService(svc)
	}
	return b, nil
}

// Now returns the wall time elapsed since New, in sim.Time microseconds
// (engine.Clock).
func (b *Backend) Now() sim.Time { return b.clk.Now() }

// SetObserver adds an observer of the control node's event stream. Events
// are published only from the CN goroutine, so the same single-threaded
// recorders work on both backends. Call before Run.
func (b *Backend) SetObserver(o engine.Observer) { b.cn.SetObserver(o) }

// SetObs attaches the observability layer, as machine.SetObs does:
// lifecycle, CN-job and cohort spans, the scheduler audit (stamped with the
// wall clock), and the CN's and the DPNs' instruments in o's registry,
// labelled backend="live" and sampled on o's interval. The registry may be
// rendered (o.Metrics().WritePrometheus) and Snapshot taken from another
// goroutine while the run executes. Call before Run.
func (b *Backend) SetObs(o *obs.Observer) {
	if o == nil {
		return
	}
	b.ob = o
	reg := o.Metrics()
	reg.Label("backend", "live")
	b.rec = engine.NewObsRecorder(b.cn, o)
	reg.GaugeFunc("cn_busy_ms", "Cumulative CN busy time, in milliseconds.",
		func() float64 { return float64(b.cnBusy) / float64(time.Millisecond) })
	b.nodes = make([]nodeObs, b.cfg.NumNodes)
	for i := range b.nodes {
		n, node := &b.nodes[i], strconv.Itoa(i)
		reg.GaugeFunc("dpn_queue", "Cohorts at the node: dispatched and not yet complete.",
			func() float64 { return float64(n.cohorts) }, "node", node)
		reg.GaugeFunc("dpn_busy_ms", "Cumulative busy time at the node, in milliseconds.",
			func() float64 { return float64(n.busy) / float64(time.Millisecond) }, "node", node)
		n.rows = reg.Rate("dpn_rows_scanned", "Rows the node scanned.", 10*sim.Second, "node", node)
	}
	reg.GaugeFunc("obs_clock_clamps", "Monotone clock-regression clamps in the observability layer (span ends plus samples).", func() float64 {
		ends, samples := o.ClockClamps()
		return float64(ends + samples)
	})
}

// Snapshot returns the /slo view of the run (the zero value when no
// observer is attached). Safe from any goroutine.
func (b *Backend) Snapshot() engine.SLOSnapshot { return b.rec.Snapshot(b.clk.Now()) }

// Submit adds one transaction to the batch. Call before Run.
func (b *Backend) Submit(steps []model.Step) *model.Txn {
	if b.ran {
		panic("live: Submit after Run")
	}
	b.nextID++
	t := model.NewTxn(b.nextID, b.clk.Now(), steps)
	b.txns = append(b.txns, t)
	return t
}

// Err reports what went wrong in the run (nil on a clean one): a batch left
// with nothing that could ever wake it or a stall against the deadline,
// either listing who waits on what; otherwise, when the scheduler keeps a
// lock table (ASL, C2PL, C2PL+M, GOW, LOW, LOW-LB, 2PL), any DPN lock-guard
// violation, since such a scheduler granted incompatible locks. NODC and
// OPT keep no lock table and co-run conflicting cohorts by design: their
// violations are only counted (Violations). Valid after the run.
func (b *Backend) Err() error {
	if b.err == nil && b.locking && b.violations != 0 {
		return fmt.Errorf("live: %s run observed %d lock-guard violations", b.schedName, b.violations)
	}
	return b.err
}

// Violations returns the number of incompatible cohort co-residencies the
// DPN lock guards observed (only valid after the run). Zero for every
// scheduler that keeps a lock table; positive under NODC by design.
func (b *Backend) Violations() int { return b.violations }

// Checksum returns the accumulated read checksum (proof the store scans
// really ran; also defeats dead-code elimination).
func (b *Backend) Checksum() uint64 { return b.checksum }

// start begins the backend's one run: it builds the channels and DPN
// workers for at most active concurrently admitted transactions. The
// capacities make every send non-blocking, which is the deadlock-freedom
// argument: a transaction has at most one active step, so at most active
// cohorts can be resident (or queued) per node and at most
// active*NumNodes completions outstanding, and each transaction has at
// most one pending restart. Sized so, the CN never blocks sending a cohort
// or a timer a restart, and a DPN never blocks sending a completion, hence
// no send cycle exists to deadlock on.
func (b *Backend) start(active int) {
	if b.ran {
		panic("live: a backend runs once")
	}
	b.ran = true
	b.comp = make(chan completion, active*b.cfg.NumNodes+1)
	b.restartQ = make(chan *engine.Exec, active+1)
	quantum := b.cfg.RowsPerObject / b.cfg.DD
	if quantum < 1 {
		quantum = 1
	}
	b.dpns = make([]*dpnWorker, b.cfg.NumNodes)
	for i := range b.dpns {
		d := &dpnWorker{
			id:          i,
			in:          make(chan *liveCohort, active+1),
			comp:        b.comp,
			clk:         b.clk,
			part:        make(map[model.FileID][]uint64),
			slabRows:    b.cfg.RowsPerObject,
			quantumRows: quantum,
			pace:        time.Duration(float64(b.cfg.PacePerObject) / float64(b.cfg.DD)),
			guard:       newDataGuard(),
			wg:          &b.wg,
		}
		b.dpns[i] = d
		b.wg.Add(1)
		go d.loop()
	}
}

// serve drains the CN's job queue and charges the wall time since t0 —
// when the CN took up the event that queued the work — to the CN.
func (b *Backend) serve(t0 time.Time) {
	b.cn.Drain()
	b.cnBusy += time.Since(t0)
}

// sample takes a metrics sample when one is due, on the CN goroutine,
// which owns the state the registry's callback gauges read.
func (b *Backend) sample() { b.ob.Tick(b.clk.Now) }

// finish stops the DPN workers and digests the run.
func (b *Backend) finish() metrics.Summary {
	for _, d := range b.dpns {
		close(d.in)
	}
	b.wg.Wait()
	for _, d := range b.dpns {
		b.met.DPNBusy(d.id, sim.Time(d.busy/time.Microsecond))
		b.violations += d.violations
	}
	b.met.CNBusy(sim.Time(b.cnBusy / time.Microsecond))
	now := b.clk.Now()
	b.ob.Finish(now)
	return b.met.Summarize(now)
}

// Run executes the batch to commit and returns the summary, its window the
// batch makespan: it submits the whole batch to the CN, closes arrivals and
// runs the CN loop.
func (b *Backend) Run() metrics.Summary {
	b.start(len(b.txns))

	t0 := time.Now()
	for _, t := range b.txns {
		b.cn.Arrive(t, admit.Batch)
	}
	b.cn.CloseArrivals()
	b.serve(t0)
	return b.loop(nil, b.cfg.Deadline)
}

// loop is the CN goroutine's one select loop, shared by a closed batch and
// a service run. It takes up cohort completions, restart hand-backs and, in
// a service run (src non-nil), the arrivals src books and the epoch ticks,
// and drains the CN's job queue after each. It ends when the CN is done
// (CN.Done). A run that can no longer progress (CN.Stuck) stops at once; a
// stall of any other kind (a protocol bug: see start's capacity argument)
// is cut at deadline. Err reports either.
func (b *Backend) loop(src *arrivalSource, deadline time.Duration) metrics.Summary {
	var (
		arrival          *time.Timer
		arrivals, epochs <-chan time.Time
	)
	if src != nil {
		arrival = time.NewTimer(src.wait(b.clk.Now()))
		defer arrival.Stop()
		epoch := time.NewTicker(time.Duration(b.cfg.Service.Epoch) * time.Microsecond)
		defer epoch.Stop()
		arrivals, epochs = arrival.C, epoch.C
	}
	cut := time.NewTimer(deadline)
	defer cut.Stop()
	for !b.cn.Done() {
		if b.cn.Stuck() {
			b.err = b.cn.StuckError()
			break
		}
		select {
		case c := <-b.comp:
			t0 := time.Now()
			b.handleCompletion(c)
			b.serve(t0)
		case e := <-b.restartQ:
			t0 := time.Now()
			b.cn.Readmit(e)
			b.serve(t0)
		case <-arrivals:
			if b.arrive(src) {
				arrival.Reset(src.wait(b.clk.Now()))
			} else {
				arrivals = nil
			}
		case <-epochs:
			t0 := time.Now()
			b.cn.Epoch(b.clk.Now())
			b.serve(t0)
		case <-cut.C:
			b.err = fmt.Errorf("live: stalled at the %v deadline with %d committed: %s",
				deadline, b.cn.Completed(), b.cn.WaitReport())
		}
		if b.err != nil {
			break
		}
		b.sample()
	}
	return b.finish()
}

// RunBatch runs a closed batch, the live backend's one way to: it submits
// every transaction of batch, runs them to commit (Run) and returns the
// summary and Err.
func (b *Backend) RunBatch(batch [][]model.Step) (metrics.Summary, error) {
	for _, steps := range batch {
		b.Submit(steps)
	}
	sum := b.Run()
	return sum, b.Err()
}

// handleCompletion lands one cohort's completion; the last one of a step
// hands the step back to the CN.
func (b *Backend) handleCompletion(c completion) {
	e := c.run.e
	if b.ob.Enabled() {
		sp := b.ob.Begin("cohort", "io", e.Txn.ID, c.node, e.Txn.StepIndex, b.rec.StepSpan(e.Txn.ID), c.start)
		b.ob.End(sp, c.end)
	}
	if b.nodes != nil {
		n := &b.nodes[c.node]
		n.cohorts--
		n.busy = c.busy
		n.rows.Add(c.end, int64(c.run.rows))
	}
	b.checksum += c.sum
	c.run.pending--
	if c.run.pending == 0 {
		b.cn.StepReturned(e)
	}
}
