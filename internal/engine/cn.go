package engine

import (
	"fmt"
	"sort"
	"strings"

	"batchsched/internal/admit"
	"batchsched/internal/lock"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/obs/stream"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// Host is what a backend supplies to the control-node core: a clock, a CPU
// for job charges, the data-processing nodes and a timer.
type Host interface {
	Clock
	// Charge starts serving the current job's CPU time. The host calls
	// CN.JobDone once it has elapsed: the simulator books a calendar event
	// cpu later, the live backend drains the queue from its loop at once.
	Charge(cpu sim.Time)
	// Dispatch sends e's granted current step to its data-processing nodes
	// (attempt > 0 after message-timeout retries). The host reports the
	// step's completion with CN.StepReturned.
	Dispatch(e *Exec, attempt int)
	// RestartAfter hands an aborted e back to CN.Readmit after d.
	RestartAfter(e *Exec, d sim.Time)
}

// CNConfig carries the control-node knobs (machine.Config documents each).
// The live backend leaves the CPU times zero: its CPU is the wall clock.
type CNConfig struct {
	MPL                       int
	MsgTime, SOTTime, COTTime sim.Time
	ChargeRetryCPU            bool
	NoWakeOnGrant             bool
	RestartDelay              sim.Time
	RestartJitter             bool
}

// CNStream holds the wall-clock streaming instruments the control node
// updates; every field is nil when telemetry is off.
type CNStream struct {
	Grants, Blocks, Restarts, Commits, Sheds *stream.Rate
	RT                                       *stream.Sketch
	Active                                   *stream.Gauge
}

// phase is the lifecycle position of a transaction inside the control node.
type phase uint8

const (
	phAtCN     phase = iota // a CN job for it is queued or running
	phAdmit                 // waiting to be admitted (parked or restarting)
	phBlocked               // waiting on a file's lock release
	phDelayed               // policy-delayed lock request
	phRunning               // cohorts executing at DPNs
	phFinished              // committed (or shed/evicted in service mode)
	phQueued                // in the service-mode admission queue
)

// Exec is the control node's runtime wrapper around one transaction.
type Exec struct {
	Txn          *model.Txn
	phase        phase
	admitCharged bool
	admitted     bool
	class        admit.Class // service class (service mode only)

	// Observability state (all zero when the observer is disabled): the
	// transaction's lifecycle span and its currently open phase spans.
	txnSpan    obs.SpanID
	admitSpan  obs.SpanID
	waitSpan   obs.SpanID
	stepSpan   obs.SpanID
	commitSpan obs.SpanID
	waitSince  sim.Time // start of the open lock-wait span
}

// StepSpan is the open "execute" span, the parent of the step's cohort
// spans (0 when observability is off).
func (e *Exec) StepSpan() obs.SpanID { return e.stepSpan }

// op names a control-node job body; contOp names its continuation. A queued
// job is a small value instead of a pair of heap-allocated closures: the CN
// runs one job per scheduler decision and per message.
type op uint8

const (
	opAdmit    op = iota // admission test
	opRequest            // lock request for the current step
	opDispatch           // CN send of the granted step
	opStepDone           // CN receive of the step's completion
	opCommit             // validation + commitment
)

// opNames label the CN job spans (precomputed: tracing allocates no strings).
var opNames = [...]string{
	opAdmit:    "cn:admit",
	opRequest:  "cn:request",
	opDispatch: "cn:dispatch",
	opStepDone: "cn:step-done",
	opCommit:   "cn:commit",
}

type contOp uint8

const (
	contNone     contOp = iota
	contPark            // admission failed: park
	contStart           // admitted: proceed to the first step
	contExec            // granted: execute the step
	contBlock           // blocked: wait on the step file's release
	contDelay           // policy-delayed: wait for a wake-up
	contAbort           // deadlock victim: roll back and restart
	contDispatch        // send done: place the step's cohorts
	contStepDone        // receive done: advance to the next step
	contCommitOK
	contCommitFail
)

type job struct {
	op      op
	e       *Exec
	attempt int
}

type cont struct {
	op      contOp
	e       *Exec
	attempt int
}

// CN is the control node: the single FCFS CPU every scheduler decision,
// message and commit queues on, and the protocol around it — admission with
// the MPL guard and the park queue, lock requests and the blocked/delayed
// wait queues, commit and validation, restart after delay, and the
// service-mode admission epoch (cnservice.go). A job body runs when its
// service starts (that is when the decision is made); its continuation runs
// when the host reports the job's CPU time elapsed (JobDone). Both backends
// run on it; they supply only a Host.
type CN struct {
	cfg        CNConfig
	host       Host
	sch        sched.Scheduler
	met        *metrics.Collector
	restartRNG *sim.RNG
	obs        Observer

	// ob is the observability layer; nil disables it, and every hook is
	// nil-receiver safe. The instruments are nil exactly when ob is nil.
	ob          *obs.Observer
	obsGrant    *obs.Counter
	obsBlock    *obs.Counter
	obsDelay    *obs.Counter
	obsRestart  *obs.Counter
	obsCommit   *obs.Counter
	obsLockWait *obs.Histogram
	obsReqCPU   *obs.Histogram
	obsRetries  *obs.Histogram

	// Stream is the live backend's telemetry (zero in the simulator).
	Stream CNStream

	// The job queue: head-indexed FIFO; busy while a job is in service.
	busy    bool
	q       []job
	head    int
	cur     cont
	curSpan obs.SpanID

	active    int // admitted, uncommitted (machine-level MPL accounting)
	completed int
	admitQ    []*Exec
	blocked   map[model.FileID][]*Exec
	nBlocked  int
	delayed   []*Exec
	// admitSpare/delayedSpare double-buffer the wake queues: a wake-up swaps
	// the live queue for the (emptied) spare and iterates the old backing
	// array, so re-parks during the sweep cannot alias the slice being
	// iterated and neither side reallocates at steady state.
	admitSpare   []*Exec
	delayedSpare []*Exec
	// execPool recycles retired wrappers: committed, shed and evicted ones,
	// which nothing references any more.
	execPool []*Exec

	svcState
}

// NewCN builds a control node driving s. restartRNG draws restart jitter.
func NewCN(cfg CNConfig, h Host, s sched.Scheduler, met *metrics.Collector, restartRNG *sim.RNG) *CN {
	return &CN{
		cfg:        cfg,
		host:       h,
		sch:        s,
		met:        met,
		restartRNG: restartRNG,
		blocked:    make(map[model.FileID][]*Exec),
	}
}

// SetObserver installs the execution observer (history recorder, trace
// writer). Observers that also implement FaultObserver see fault aborts.
func (c *CN) SetObserver(o Observer) { c.obs = o }

// SetObs attaches the observability layer: decision counters, the lock-wait,
// request-CPU and restart histograms, the CN queue, active and waiting
// gauges, per-job CN spans and the scheduler audit stamped with the host
// clock. The backend registers its own gauges after these.
func (c *CN) SetObs(o *obs.Observer) {
	c.ob = o
	c.obsGrant = o.Counter("grants")
	c.obsBlock = o.Counter("blocks")
	c.obsDelay = o.Counter("delays")
	c.obsRestart = o.Counter("restarts")
	c.obsCommit = o.Counter("commits")
	c.obsLockWait = o.Histogram("lock_wait_ms",
		[]float64{1, 10, 100, 1_000, 10_000, 60_000, 300_000})
	c.obsReqCPU = o.Histogram("request_cpu_ms",
		[]float64{0.5, 1, 2, 5, 10, 20, 50, 100})
	c.obsRetries = o.Histogram("restarts_per_txn",
		[]float64{0, 1, 2, 5, 10})
	hCNQ := o.Histogram("cn_queue_depth",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64})
	o.Gauge("cn_queue", func() float64 {
		v := float64(c.queueLen())
		hCNQ.Observe(v)
		return v
	})
	o.Gauge("active_txns", func() float64 { return float64(c.active) })
	o.Gauge("waiting_txns", func() float64 { return float64(len(c.delayed) + c.nBlocked) })
	o.Audit().SetClock(c.host.Now)
	if a, ok := c.sch.(sched.Audited); ok {
		a.SetAudit(o.Audit())
	}
}

// Active is the number of admitted, uncommitted transactions.
func (c *CN) Active() int { return c.active }

// Completed is the number of committed transactions.
func (c *CN) Completed() int { return c.completed }

// Waiting is the number of parked, blocked and policy-delayed transactions.
func (c *CN) Waiting() int { return len(c.admitQ) + len(c.delayed) + c.nBlocked }

// queueLen reports the number of jobs waiting (excluding the one running).
func (c *CN) queueLen() int { return len(c.q) - c.head }

// Arrive books a transaction's arrival at the current time and starts it:
// into the admission queue in service mode (class is its service class),
// otherwise straight to the admission test.
func (c *CN) Arrive(t *model.Txn, class admit.Class) {
	now := c.host.Now()
	c.met.Arrival(now)
	e := c.newExec(t)
	if c.ob.Enabled() {
		e.txnSpan = c.ob.Begin("txn", "txn", t.ID, -1, -1, 0, now)
	}
	if c.svc != nil {
		c.offer(e, class, now)
		return
	}
	c.tryAdmit(e)
}

// newExec wraps a transaction, reusing a retired wrapper when one is pooled.
func (c *CN) newExec(t *model.Txn) *Exec {
	if n := len(c.execPool); n > 0 {
		e := c.execPool[n-1]
		c.execPool[n-1] = nil
		c.execPool = c.execPool[:n-1]
		*e = Exec{Txn: t}
		return e
	}
	return &Exec{Txn: t}
}

// submit enqueues a job; the CPU starts it at once if it is idle.
func (c *CN) submit(j job) {
	c.q = append(c.q, j)
	if !c.busy {
		c.busy = true
		c.next()
	}
}

// next starts the next queued job: its body runs now, and the host serves
// the CPU time the body returns before JobDone runs the continuation.
func (c *CN) next() {
	if c.head == len(c.q) {
		c.q = c.q[:0]
		c.head = 0
		c.busy = false
		return
	}
	j := c.q[c.head]
	c.q[c.head] = job{}
	c.head++
	// Reclaim drained prefix occasionally to bound memory.
	if c.head > 1024 && c.head*2 > len(c.q) {
		c.q = append(c.q[:0], c.q[c.head:]...)
		c.head = 0
	}
	if c.ob.Enabled() {
		c.curSpan = c.ob.Begin(opNames[j.op], "cn", j.e.Txn.ID, -1, -1, 0, c.host.Now())
	}
	cpu, k := c.body(j)
	if cpu < 0 {
		panic("engine: negative CN CPU time")
	}
	c.cur = k
	c.host.Charge(cpu)
}

// JobDone finishes the job in service — its CPU time has elapsed — and
// starts the next one. It reads the host clock only to close an open CN job
// span: with observability off, a job costs no clock read.
func (c *CN) JobDone() {
	if c.curSpan != 0 {
		c.ob.End(c.curSpan, c.host.Now())
		c.curSpan = 0
	}
	k := c.cur
	c.cur = cont{}
	c.finish(k)
	c.next()
}

// Drain serves queued jobs back to back until the queue is empty, for hosts
// whose Charge returns without waiting.
func (c *CN) Drain() {
	for c.busy {
		c.JobDone()
	}
}

// body dispatches an op-coded job body.
func (c *CN) body(j job) (sim.Time, cont) {
	switch j.op {
	case opAdmit:
		return c.admitBody(j.e)
	case opRequest:
		return c.requestBody(j.e)
	case opDispatch:
		return c.cfg.MsgTime, cont{op: contDispatch, e: j.e, attempt: j.attempt}
	case opStepDone:
		return c.cfg.MsgTime, cont{op: contStepDone, e: j.e}
	case opCommit:
		return c.commitBody(j.e)
	default:
		panic(fmt.Sprintf("engine: unknown CN op %d", j.op))
	}
}

// finish dispatches an op-coded job continuation.
func (c *CN) finish(k cont) {
	e := k.e
	switch k.op {
	case contPark:
		c.parkAdmit(e)
	case contStart:
		if e.admitSpan != 0 {
			c.ob.End(e.admitSpan, c.host.Now())
			e.admitSpan = 0
		}
		c.nextStep(e)
	case contExec:
		c.endWait(e)
		if c.ob.Enabled() {
			e.stepSpan = c.ob.Begin("execute", "txn", e.Txn.ID, -1,
				e.Txn.StepIndex, e.txnSpan, c.host.Now())
		}
		c.submit(job{op: opDispatch, e: e})
		if !c.cfg.NoWakeOnGrant {
			c.wakeDelayed() // a grant changes the scheduling state
		}
	case contBlock:
		e.phase = phBlocked
		c.beginWait(e)
		file := e.Txn.CurrentStep().File
		c.blocked[file] = append(c.blocked[file], e)
		c.nBlocked++
	case contDelay:
		e.phase = phDelayed
		c.beginWait(e)
		c.delayed = append(c.delayed, e)
	case contAbort:
		c.endWait(e)
		c.rollback(e)
		c.wakeCommit(e.Txn) // its released locks may unblock others
		c.restartAfterDelay(e)
	case contDispatch:
		e.phase = phRunning
		c.host.Dispatch(e, k.attempt)
	case contStepDone:
		c.stepDone(e)
	case contCommitOK:
		c.commitFinish(e)
	case contCommitFail:
		if e.commitSpan != 0 {
			c.ob.End(e.commitSpan, c.host.Now())
			e.commitSpan = 0
		}
		c.rollback(e)
		c.restartAfterDelay(e) // re-admission restamps the attempt
	default:
		panic(fmt.Sprintf("engine: unknown CN continuation %d", k.op))
	}
}

// tryAdmit queues an admission attempt. Failed attempts park the
// transaction; it is retried after the next commit.
func (c *CN) tryAdmit(e *Exec) {
	e.phase = phAtCN
	c.submit(job{op: opAdmit, e: e})
}

// Readmit is the host's hand-back of a transaction whose restart delay
// (CN asked via Host.RestartAfter) has elapsed.
func (c *CN) Readmit(e *Exec) { c.tryAdmit(e) }

// admitBody is the opAdmit job body.
func (c *CN) admitBody(e *Exec) (sim.Time, cont) {
	if c.cfg.MPL > 0 && c.active >= c.cfg.MPL && !e.admitted {
		return 0, cont{op: contPark, e: e}
	}
	ok, cpu := c.sch.Admit(e.Txn)
	if e.admitCharged && !c.cfg.ChargeRetryCPU {
		// Retried admission tests are batch-evaluated for free (see
		// DESIGN.md substitution notes); only the first attempt pays.
		cpu = 0
	}
	e.admitCharged = true
	if !ok {
		c.met.AdmissionReject()
		e.Txn.AdmissionTries++
		return cpu, cont{op: contPark, e: e}
	}
	if !e.admitted {
		e.admitted = true
		c.active++
	}
	e.Txn.Status = model.Active
	return cpu + c.cfg.SOTTime, cont{op: contStart, e: e}
}

func (c *CN) parkAdmit(e *Exec) {
	e.phase = phAdmit
	if c.ob.Enabled() && e.admitSpan == 0 {
		e.admitSpan = c.ob.Begin("admit-wait", "txn", e.Txn.ID, -1, -1, e.txnSpan, c.host.Now())
	}
	c.admitQ = append(c.admitQ, e)
}

// nextStep routes the transaction to its next lock request or to commit.
func (c *CN) nextStep(e *Exec) {
	if !e.Txn.Done() {
		c.requestLock(e)
		return
	}
	e.phase = phAtCN
	if c.ob.Enabled() {
		e.commitSpan = c.ob.Begin("commit", "txn", e.Txn.ID, -1, -1,
			e.txnSpan, c.host.Now())
	}
	c.submit(job{op: opCommit, e: e})
}

func (c *CN) requestLock(e *Exec) {
	e.phase = phAtCN
	c.submit(job{op: opRequest, e: e})
}

// requestBody is the opRequest job body. The continuations re-read the
// current step where needed: the CN is serial, so no other job body or
// continuation (the only mutators of StepIndex) can run in between.
func (c *CN) requestBody(e *Exec) (sim.Time, cont) {
	out := c.sch.Request(e.Txn)
	c.obsReqCPU.Observe(out.CPU.Milliseconds())
	switch out.Decision {
	case sched.Grant:
		c.met.Granted()
		c.obsGrant.Inc()
		c.mark(c.Stream.Grants)
		return out.CPU, cont{op: contExec, e: e}
	case sched.Block:
		c.met.Block()
		c.obsBlock.Inc()
		c.mark(c.Stream.Blocks)
		return out.CPU, cont{op: contBlock, e: e}
	case sched.Delay:
		c.met.Delay()
		c.obsDelay.Inc()
		return out.CPU, cont{op: contDelay, e: e}
	case sched.Abort:
		// Deadlock victim (strict 2PL): roll back, release, restart. No
		// cohorts are in flight — the decision happened at request time.
		c.countRestart(e)
		return out.CPU, cont{op: contAbort, e: e}
	default:
		panic(fmt.Sprintf("engine: unexpected request decision %v", out.Decision))
	}
}

// mark counts one event on a stream rate at the current time.
func (c *CN) mark(r *stream.Rate) {
	if r != nil {
		r.Add(c.host.Now(), 1)
	}
}

func (c *CN) countRestart(e *Exec) {
	c.met.Restart()
	c.obsRestart.Inc()
	c.mark(c.Stream.Restarts)
	e.Txn.Restarts++
}

// rollback discards the transaction's current attempt: the scheduler
// releases its locks (and WTPG node), and the observer sees the restart.
func (c *CN) rollback(e *Exec) {
	c.sch.Aborted(e.Txn)
	e.Txn.StepIndex = 0
	if c.obs != nil {
		c.obs.Restarted(e.Txn, c.host.Now())
	}
}

// beginWait opens the transaction's lock-wait span (blocked or
// policy-delayed both count as waiting for a lock); reentrant for a
// transaction that bounces between the two without a grant in between.
func (c *CN) beginWait(e *Exec) {
	if !c.ob.Enabled() || e.waitSpan != 0 {
		return
	}
	e.waitSince = c.host.Now()
	e.waitSpan = c.ob.Begin("lock-wait", "txn", e.Txn.ID, -1,
		e.Txn.StepIndex, e.txnSpan, e.waitSince)
}

// endWait closes the open lock-wait span (if any) and feeds the lock-wait
// histogram with its length (clamped at zero: wall-clock stamps may come
// from different goroutines).
func (c *CN) endWait(e *Exec) {
	if e.waitSpan == 0 {
		return
	}
	now := c.host.Now()
	c.ob.End(e.waitSpan, now)
	c.obsLockWait.Observe(max(now-e.waitSince, 0).Milliseconds())
	e.waitSpan = 0
}

// Redispatch re-sends e's current step after a lost message (attempt is
// the 1-based retry number).
func (c *CN) Redispatch(e *Exec, attempt int) {
	c.submit(job{op: opDispatch, e: e, attempt: attempt})
}

// StepReturned delivers the completion of e's dispatched step: the CN
// receives it and advances the transaction.
func (c *CN) StepReturned(e *Exec) {
	c.submit(job{op: opStepDone, e: e})
}

// stepDone is the contStepDone continuation: the CN receive is paid, the
// transaction advances to its next step (or commit).
func (c *CN) stepDone(e *Exec) {
	if e.stepSpan != 0 {
		c.ob.End(e.stepSpan, c.host.Now())
		e.stepSpan = 0
	}
	c.met.StepExecuted()
	step := e.Txn.StepIndex
	e.Txn.StepIndex++
	if c.obs != nil {
		c.obs.StepDone(e.Txn, step, c.host.Now())
	}
	c.nextStep(e)
}

// commitBody is the opCommit job body: validation decides between the
// commit and the restart continuation.
func (c *CN) commitBody(e *Exec) (sim.Time, cont) {
	ok, vcpu := c.sch.Validate(e.Txn)
	if !ok {
		c.countRestart(e)
		return vcpu, cont{op: contCommitFail, e: e}
	}
	return vcpu + c.cfg.COTTime, cont{op: contCommitOK, e: e}
}

// commitFinish is the contCommitOK continuation: commit, release, and a
// system-wide wake-up.
func (c *CN) commitFinish(e *Exec) {
	c.sch.Committed(e.Txn)
	e.Txn.Status = model.Committed
	e.phase = phFinished
	c.active--
	c.completed++
	now := c.host.Now()
	rt := max(now-e.Txn.Arrival, 0)
	c.met.Completion(now, rt)
	if c.svc != nil {
		c.window--
		c.epochRTs = append(c.epochRTs, rt)
	}
	if c.Stream.Commits != nil {
		c.Stream.Commits.Add(now, 1)
		c.Stream.RT.Observe(float64(rt) / 1e6) // sim.Time microseconds -> seconds
		c.Stream.Active.Set(int64(c.active))
	}
	if c.ob.Enabled() {
		c.ob.End(e.commitSpan, now)
		e.commitSpan = 0
		c.ob.End(e.txnSpan, now)
		c.obsCommit.Inc()
		c.obsRetries.Observe(float64(e.Txn.Restarts))
	}
	if c.obs != nil {
		c.obs.Committed(e.Txn, now)
	}
	c.wakeCommit(e.Txn)
	// The exec is fully retired (no queue, timer or event references a
	// committed transaction's wrapper) — recycle it for a future arrival.
	c.execPool = append(c.execPool, e)
}

// Abort rolls a running transaction back after a fault (reason "crash" or
// "timeout"): the scheduler releases its locks, the observer sees the
// rollback, waiters on its files are reconsidered, and the transaction
// restarts after RestartDelay — the same recovery contract as the
// deadlock-victim and validation-failure paths.
func (c *CN) Abort(e *Exec, reason string) {
	if e.stepSpan != 0 {
		c.ob.End(e.stepSpan, c.host.Now())
		e.stepSpan = 0
	}
	c.endWait(e)
	c.countRestart(e)
	c.rollback(e)
	if fo, ok := c.obs.(FaultObserver); ok {
		fo.AbortedTxn(e.Txn, reason, c.host.Now())
	}
	c.wakeCommit(e.Txn) // its released locks may unblock others
	c.restartAfterDelay(e)
}

// restartAfterDelay re-admits an aborted transaction, after the configured
// restart delay (jittered to [0.5, 1.5)x when RestartJitter) if one is set.
func (c *CN) restartAfterDelay(e *Exec) {
	if c.cfg.RestartDelay <= 0 {
		c.tryAdmit(e)
		return
	}
	e.phase = phAdmit
	d := c.cfg.RestartDelay
	if c.cfg.RestartJitter {
		d = max(sim.Time(float64(d)*(0.5+c.restartRNG.Float64())), 1)
	}
	c.host.RestartAfter(e, d)
}

// wakeCommit reconsiders everything a commit (or rollback release) can
// unblock: requests blocked on the released files (ascending file order),
// every policy-delayed request, then the pending admissions FIFO.
func (c *CN) wakeCommit(t *model.Txn) {
	files, _ := t.LockNeedSorted()
	for _, f := range files {
		list := c.blocked[f]
		if len(list) == 0 {
			continue
		}
		// Keep the entry's backing array: re-blocks on this file reuse it
		// (requestLock only queues a CN job, so nothing re-blocks while the
		// old list is being walked).
		c.blocked[f] = list[:0]
		c.nBlocked -= len(list)
		for i, e := range list {
			list[i] = nil
			c.requestLock(e)
		}
	}
	c.wakeDelayed()
	if len(c.admitQ) > 0 {
		q := c.admitQ
		c.admitQ = c.admitSpare[:0]
		for i, e := range q {
			q[i] = nil
			c.tryAdmit(e)
		}
		c.admitSpare = q[:0]
	}
}

// wakeDelayed resubmits every policy-delayed request.
func (c *CN) wakeDelayed() {
	if len(c.delayed) == 0 {
		return
	}
	q := c.delayed
	c.delayed = c.delayedSpare[:0]
	for i, e := range q {
		q[i] = nil
		c.requestLock(e)
	}
	c.delayedSpare = q[:0]
}

// Quiescent reports whether the control node can make no progress on its
// own with n transactions uncommitted: no job is queued or in service and
// every one of the n waits in the park, blocked or delayed queue — so none
// has a step in flight or a restart pending, and only a commit, which
// cannot come, would wake them.
func (c *CN) Quiescent(n int) bool {
	return n > 0 && !c.busy && c.Waiting() == n
}

// WaitReport lists who waits on what, in transaction order: each blocked
// or policy-delayed transaction with the file its current step needs and,
// when the scheduler exposes its lock table, that file's holders and the
// files the waiter itself holds; then the park queue.
func (c *CN) WaitReport() string {
	type waiter struct {
		e   *Exec
		how string
	}
	var ws []waiter
	for _, list := range c.blocked {
		for _, e := range list {
			ws = append(ws, waiter{e, "blocked"})
		}
	}
	for _, e := range c.delayed {
		ws = append(ws, waiter{e, "delayed"})
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].e.Txn.ID < ws[j].e.Txn.ID })
	var locks *lock.Table
	if lt, ok := c.sch.(interface{ Locks() *lock.Table }); ok {
		locks = lt.Locks()
	}
	var b strings.Builder
	for _, w := range ws {
		t := w.e.Txn
		st := t.CurrentStep()
		fmt.Fprintf(&b, "T%d %s at step %d on %s(f%d)", t.ID, w.how, t.StepIndex, st.LockMode, st.File)
		if locks != nil {
			fmt.Fprintf(&b, " held by %v, holding %v", locks.Holders(st.File), locks.HeldBy(t.ID))
		}
		b.WriteString("; ")
	}
	b.WriteString("parked:")
	for _, e := range c.admitQ {
		fmt.Fprintf(&b, " T%d", e.Txn.ID)
	}
	return b.String()
}
