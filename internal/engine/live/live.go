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
// A live run is a closed batch: Submit every transaction, then Run drives
// the batch to commit and summarizes at the makespan. There is no arrival
// process and no fault injection.
package live

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"batchsched/internal/admit"
	"batchsched/internal/engine"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/obs/stream"
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
	// SampleEvery is the observability sampling period on the wall clock
	// (0 = sample only at Finish).
	SampleEvery time.Duration
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

// liveRun is one step dispatch: DD cohorts in flight, counted down by
// completions.
type liveRun struct {
	e       *engine.Exec
	pending int
}

// Backend is one live run: build with New, Submit the batch, call Run once.
// All methods are driven from one goroutine (the caller's, which becomes
// the CN); only the DPN workers run concurrently.
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

	restartQ       chan *engine.Exec
	restartPending int

	ob         *obs.Observer
	lastSample sim.Time

	// Streaming instruments (telemetry for the /metrics endpoint). All nil
	// when telemetry is off; the CN-updated ones live in cn.Stream, and
	// every update is nil-receiver safe or guarded on stream.
	stream        *stream.Set
	strWaiting    *stream.Gauge
	strQueueDepth *stream.Gauge
	strSojournUS  *stream.Gauge

	txns []*model.Txn

	nextID     int64
	checksum   uint64
	violations int
	cnBusy     time.Duration
	ran        bool
	err        error
}

// Backend is an execution backend.
var _ engine.Backend = (*Backend)(nil)

// cnHost is the live side of the control-node core: wall time, CN CPU
// measured rather than charged (the loop drains the queue at once, see
// serve), cohorts sent to the DPN goroutines, restart timers on the wall
// clock.
type cnHost struct{ *Backend }

// Charge does nothing: the CN loop drains the queue right away.
func (cnHost) Charge(sim.Time) {}

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
	for _, node := range h.nodesBuf {
		h.dpns[node].in <- &liveCohort{
			run: run, txn: e.Txn.ID, file: st.File,
			mode: st.LockMode, write: st.Write, rows: rows,
		}
	}
}

// RestartAfter hands e back to the CN's select loop after d of wall time.
func (h cnHost) RestartAfter(e *engine.Exec, d sim.Time) {
	h.restartPending++
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
	b := &Backend{
		cfg:   cfg,
		met:   metrics.NewCollector(cfg.NumNodes, 0),
		clk:   newWallClock(),
		place: engine.Placement{NumNodes: cfg.NumNodes, DD: cfg.DD},
	}
	// The CN's CPU is the wall clock, so it charges no modelled CPU times;
	// a sub-microsecond restart delay rounds up to one microsecond.
	b.cn = engine.NewCN(engine.CNConfig{
		MPL:           cfg.MPL,
		RestartDelay:  sim.Time((cfg.RestartDelay + time.Microsecond - 1) / time.Microsecond),
		RestartJitter: cfg.RestartJitter,
	}, cnHost{b}, s, b.met, sim.NewRNG(1).Stream("restart"))
	return b, nil
}

// Now returns the wall time elapsed since New, in sim.Time microseconds
// (engine.Clock).
func (b *Backend) Now() sim.Time { return b.clk.Now() }

// SetObserver installs an execution observer (history recorder etc.). It is
// called only from the CN goroutine, so the same single-threaded recorders
// work on both backends.
func (b *Backend) SetObserver(o engine.Observer) { b.cn.SetObserver(o) }

// SetObs attaches the observability layer, as machine.SetObs does:
// lifecycle, CN-job and cohort spans, decision counters and histograms,
// scheduler audit (stamped with the wall clock) and registry gauges sampled
// on cfg.SampleEvery. Call before Run.
func (b *Backend) SetObs(o *obs.Observer) {
	if o == nil {
		return
	}
	b.ob = o
	b.cn.SetObs(o)
	o.Gauge("cn_busy_ms", func() float64 { return float64(b.cnBusy) / float64(time.Millisecond) })
}

// SetStream attaches the streaming telemetry registry: wall-clock decision
// and commit rates, the response-time quantile sketch, active/waiting
// gauges, clamp counters, and (registered in Run, once the workers exist)
// per-DPN queue-depth, busy-time and row-scan instruments. Unlike SetObs,
// these are written on the hot path and read concurrently by the scrape
// endpoint — which is why they are stream instruments (atomics) and not
// registry gauges over CN fields. Call before Run; a nil set disables.
func (b *Backend) SetStream(set *stream.Set) {
	if set == nil {
		return
	}
	b.stream = set
	const win, slot = 10 * time.Second, time.Second
	b.cn.Stream = engine.CNStream{
		Grants:   set.Rate("live_grants", "Scheduler grant decisions.", win, slot),
		Blocks:   set.Rate("live_blocks", "Scheduler block decisions.", win, slot),
		Restarts: set.Rate("live_restarts", "Transaction aborts and restarts.", win, slot),
		Commits:  set.Rate("live_commits", "Committed transactions.", win, slot),
		RT:       set.Sketch("live_rt_seconds", "Transaction response time in seconds."),
		Active:   set.Gauge("live_active_txns", "Admitted and uncommitted transactions."),
	}
	b.strWaiting = set.Gauge("live_waiting_txns", "Blocked, policy-delayed, or admission-parked transactions.")
	set.GaugeFunc("obs_clock_clamps", "Monotone clock-regression clamps in the observability layer (span ends plus samples).", func() float64 {
		ends, samples := b.ob.ClockClamps()
		return float64(ends + samples)
	})
}

// ClockClamps reports the attached observer's monotone clock-clamp
// counters (zero when no observer is attached). Safe from any goroutine.
func (b *Backend) ClockClamps() (spanEnds, samples int64) { return b.ob.ClockClamps() }

// SLOSnapshot is the /slo endpoint's view of a run in flight, assembled
// entirely from streaming instruments (atomics), so it can be taken from
// the scrape goroutine while the CN and DPNs execute.
type SLOSnapshot struct {
	ActiveTxns    int64   `json:"activeTxns"`
	WaitingTxns   int64   `json:"waitingTxns"`
	Commits       int64   `json:"commits"`
	CommitsPerSec float64 `json:"commitsPerSec"`
	Grants        int64   `json:"grants"`
	Blocks        int64   `json:"blocks"`
	Restarts      int64   `json:"restarts"`
	P50RTSeconds  float64 `json:"p50RtSeconds"`
	P95RTSeconds  float64 `json:"p95RtSeconds"`
	ClockClamps   int64   `json:"clockClamps"`
}

// Snapshot returns the current SLO snapshot (zero value when no stream set
// is attached). Safe from any goroutine.
func (b *Backend) Snapshot() SLOSnapshot {
	if b.stream == nil {
		return SLOSnapshot{}
	}
	st := &b.cn.Stream
	ends, samples := b.ClockClamps()
	return SLOSnapshot{
		ActiveTxns:    st.Active.Value(),
		WaitingTxns:   b.strWaiting.Value(),
		Commits:       st.Commits.Total(),
		CommitsPerSec: st.Commits.RatePerSec(b.clk.Now()),
		Grants:        st.Grants.Total(),
		Blocks:        st.Blocks.Total(),
		Restarts:      st.Restarts.Total(),
		P50RTSeconds:  st.RT.Quantile(0.5),
		P95RTSeconds:  st.RT.Quantile(0.95),
		ClockClamps:   ends + samples,
	}
}

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

// InFlight reports how many submitted transactions have not committed.
func (b *Backend) InFlight() int { return int(b.nextID) - b.cn.Completed() }

// Err reports why the run stopped short (nil on a clean drain): a batch
// left with nothing that could ever wake it, or a stall against the
// deadline. Either error lists who waits on what.
func (b *Backend) Err() error { return b.err }

// Violations returns the number of incompatible cohort co-residencies the
// DPN lock guards observed (only valid after Run). Zero for every real
// scheduler; positive under NODC by design.
func (b *Backend) Violations() int { return b.violations }

// Checksum returns the accumulated read checksum (proof the store scans
// really ran; also defeats dead-code elimination).
func (b *Backend) Checksum() uint64 { return b.checksum }

// start builds the channels and DPN workers for at most active
// concurrently admitted transactions. The capacities make every send
// non-blocking, which is the deadlock-freedom argument: a transaction has
// at most one active step, so at most active cohorts can be resident (or
// queued) per node and at most active*NumNodes completions outstanding,
// and each transaction has at most one pending restart. Sized so, the CN
// never blocks sending a cohort or a timer a restart, and a DPN never
// blocks sending a completion, hence no send cycle exists to deadlock on.
func (b *Backend) start(active int) {
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
		if b.stream != nil {
			node := strconv.Itoa(i)
			d.strQueue = b.stream.Gauge("live_dpn_queue_depth",
				"Cohorts resident in the node's service ring.", "node", node)
			d.strBusyUS = b.stream.Gauge("live_dpn_busy_us",
				"Cumulative busy time at the node in microseconds.", "node", node)
			d.strRows = b.stream.Rate("live_dpn_rows_scanned",
				"Rows scanned by the node.", 10*time.Second, time.Second, "node", node)
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

// sample refreshes the CN-owned stream gauges (so the scrape endpoint never
// reads CN fields directly) and takes a registry sample when one is due.
func (b *Backend) sample() {
	if b.stream != nil {
		b.cn.Stream.Active.Set(int64(b.cn.Active()))
		b.strWaiting.Set(int64(b.cn.Waiting()))
	}
	if b.ob.Enabled() && b.cfg.SampleEvery > 0 {
		if now := b.clk.Now(); now-b.lastSample >= sim.Time(b.cfg.SampleEvery/time.Microsecond) {
			b.lastSample = now
			b.ob.SampleNow(now)
		}
	}
}

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
// batch makespan. A batch that can no longer progress — every uncommitted
// transaction waiting, nothing in flight — stops at once; a stall of any
// other kind (a protocol bug: see start's capacity argument) is cut at
// cfg.Deadline. Err reports either.
func (b *Backend) Run() metrics.Summary {
	if b.ran {
		panic("live: Run called twice")
	}
	b.ran = true
	n := len(b.txns)
	b.start(n)

	t0 := time.Now()
	for _, t := range b.txns {
		b.cn.Arrive(t, admit.Batch)
	}
	b.serve(t0)

	deadline := time.NewTimer(b.cfg.Deadline)
	defer deadline.Stop()
	for b.cn.Completed() < n {
		if left := n - b.cn.Completed(); b.cn.Quiescent(left) {
			b.err = fmt.Errorf("live: batch stuck with %d/%d committed and nothing in flight: %s",
				n-left, n, b.cn.WaitReport())
			break
		}
		select {
		case c := <-b.comp:
			t0 := time.Now()
			b.handleCompletion(c)
			b.serve(t0)
		case e := <-b.restartQ:
			t0 := time.Now()
			b.restartPending--
			b.cn.Readmit(e)
			b.serve(t0)
		case <-deadline.C:
			b.err = fmt.Errorf("live: stalled after %v: %d/%d committed, active=%d restarting=%d: %s",
				b.cfg.Deadline, b.cn.Completed(), n, b.cn.Active(), b.restartPending, b.cn.WaitReport())
		}
		if b.err != nil {
			break
		}
		b.sample()
	}
	return b.finish()
}

// handleCompletion lands one cohort's completion; the last one of a step
// hands the step back to the CN.
func (b *Backend) handleCompletion(c completion) {
	e := c.run.e
	if b.ob.Enabled() {
		sp := b.ob.Begin("cohort", "io", e.Txn.ID, c.node, e.Txn.StepIndex, e.StepSpan(), c.start)
		b.ob.End(sp, c.end)
	}
	b.checksum += c.sum
	c.run.pending--
	if c.run.pending == 0 {
		b.cn.StepReturned(e)
	}
}
