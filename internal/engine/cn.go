package engine

import (
	"fmt"
	"sort"
	"strings"

	"batchsched/internal/admit"
	"batchsched/internal/lock"
	"batchsched/internal/metrics"
	"batchsched/internal/model"
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
	// ChargesCPU reports whether Charge spends the CPU time it is given.
	// The simulator's does; the live CN's CPU is the wall time it measures,
	// so the modelled decision CPU is no cost there.
	ChargesCPU() bool
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
}

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

// opNames name the CN jobs in EvJobStart events (precomputed: publishing
// allocates no strings).
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
	// observers receive every transition as an Event; with none attached a
	// transition costs one length check and reads no clock.
	observers []Observer

	// The job queue: head-indexed FIFO; busy while a job is in service.
	busy bool
	q    []job
	head int
	cur  cont

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

// SetObserver adds an observer, after those already attached. Call before
// the run.
func (c *CN) SetObserver(o Observer) { c.observers = append(c.observers, o) }

// Publish hands ev to every observer, in attach order. A backend publishes
// its fault and retry events here, on the CN's stream.
func (c *CN) Publish(ev Event) {
	for _, o := range c.observers {
		o.Event(ev)
	}
}

// observed gates every publishing site, so an unobserved transition builds
// no Event and reads no clock.
func (c *CN) observed() bool { return len(c.observers) > 0 }

// emit publishes a transition of t that carries nothing but its kind. It
// inlines to the observed check; publishKind builds the event.
func (c *CN) emit(k EventKind, t *model.Txn) {
	if c.observed() {
		c.publishKind(k, t)
	}
}

func (c *CN) publishKind(k EventKind, t *model.Txn) {
	c.Publish(Event{Kind: k, At: c.host.Now(), Txn: t})
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
	if c.observed() {
		c.Publish(Event{Kind: EvArrive, At: now, Txn: t})
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
	if c.observed() {
		c.Publish(Event{Kind: EvJobStart, At: c.host.Now(), Txn: j.e.Txn, Op: opNames[j.op]})
	}
	cpu, k := c.body(j)
	if cpu < 0 {
		panic("engine: negative CN CPU time")
	}
	c.cur = k
	c.host.Charge(cpu)
}

// JobDone finishes the job in service — its CPU time has elapsed — and
// starts the next one. It reads the host clock only to publish EvJobEnd:
// with no observer attached, a job costs no clock read.
func (c *CN) JobDone() {
	k := c.cur
	c.emit(EvJobEnd, k.e.Txn)
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
		c.emit(EvStart, e.Txn)
		c.nextStep(e)
	case contExec:
		c.emit(EvExecute, e.Txn)
		c.submit(job{op: opDispatch, e: e})
		if !c.cfg.NoWakeOnGrant {
			c.wakeDelayed() // a grant changes the scheduling state
		}
	case contBlock:
		e.phase = phBlocked
		c.emit(EvWait, e.Txn)
		file := e.Txn.CurrentStep().File
		c.blocked[file] = append(c.blocked[file], e)
		c.nBlocked++
	case contDelay:
		e.phase = phDelayed
		c.emit(EvWait, e.Txn)
		c.delayed = append(c.delayed, e)
	case contAbort:
		c.rollback(e, "")
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
		c.rollback(e, "")
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
	if c.observed() {
		c.Publish(Event{Kind: EvAdmit, At: c.host.Now(), Txn: e.Txn, OK: ok})
	}
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
	c.emit(EvPark, e.Txn)
	c.admitQ = append(c.admitQ, e)
}

// nextStep routes the transaction to its next lock request or to commit.
func (c *CN) nextStep(e *Exec) {
	if !e.Txn.Done() {
		c.requestLock(e)
		return
	}
	e.phase = phAtCN
	c.emit(EvCommitting, e.Txn)
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
	if c.observed() {
		c.Publish(Event{Kind: EvRequest, At: c.host.Now(), Txn: e.Txn, Decision: out.Decision, CPU: out.CPU})
	}
	switch out.Decision {
	case sched.Grant:
		c.met.Granted()
		return out.CPU, cont{op: contExec, e: e}
	case sched.Block:
		c.met.Block()
		return out.CPU, cont{op: contBlock, e: e}
	case sched.Delay:
		c.met.Delay()
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

func (c *CN) countRestart(e *Exec) {
	c.met.Restart()
	e.Txn.Restarts++
}

// rollback discards the transaction's current attempt: the scheduler
// releases its locks (and WTPG node), and the observers see the abort
// (reason as for Abort, "" for a deadlock victim or a failed validation)
// while StepIndex still names the rolled-back step.
func (c *CN) rollback(e *Exec, reason string) {
	c.sch.Aborted(e.Txn)
	if c.observed() {
		c.Publish(Event{Kind: EvAbort, At: c.host.Now(), Txn: e.Txn, Reason: reason})
	}
	e.Txn.StepIndex = 0
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
	c.met.StepExecuted()
	step := e.Txn.StepIndex
	e.Txn.StepIndex++
	if c.observed() {
		c.Publish(Event{Kind: EvStepDone, At: c.host.Now(), Txn: e.Txn, Step: step})
	}
	c.nextStep(e)
}

// commitBody is the opCommit job body: validation decides between the
// commit and the restart continuation.
func (c *CN) commitBody(e *Exec) (sim.Time, cont) {
	ok, vcpu := c.sch.Validate(e.Txn)
	if c.observed() {
		c.Publish(Event{Kind: EvValidate, At: c.host.Now(), Txn: e.Txn, OK: ok})
	}
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
	if c.observed() {
		c.Publish(Event{Kind: EvCommit, At: now, Txn: e.Txn})
	}
	c.wakeCommit(e.Txn)
	// The exec is fully retired (no queue, timer or event references a
	// committed transaction's wrapper) — recycle it for a future arrival.
	c.execPool = append(c.execPool, e)
}

// Abort rolls a running transaction back after a fault (reason "crash" or
// "timeout"): the scheduler releases its locks, the observers see the
// rollback, waiters on its files are reconsidered, and the transaction
// restarts after RestartDelay — the same recovery contract as the
// deadlock-victim and validation-failure paths.
func (c *CN) Abort(e *Exec, reason string) {
	c.countRestart(e)
	c.rollback(e, reason)
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
