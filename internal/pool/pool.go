// Package pool provides the persistent worker pool behind the scheduler
// decision engine (DESIGN.md §17). One pool owns a fixed set of goroutines;
// callers hand it batches of independent tasks through a Lane, which tags
// the workers with runtime/pprof labels (pool name, lane name, worker index)
// so -cpuprofile output attributes time to the right subsystem.
//
// Work is published to the workers up front, tasks are claimed with an
// atomic cursor, and every result is written by task index so reductions are
// deterministic no matter which worker ran which task. Run blocks until the
// whole batch is done; the kick channel gives happens-before for the
// coordinator's writes and the WaitGroup publishes the workers' writes back.
// Batches with one task (or a one-worker cap, or a stopped pool) run inline
// on the caller as worker 0, so the sequential path needs no special casing
// and a stopped pool degrades gracefully instead of deadlocking.
//
// Run performs no allocations in steady state: Runner is an interface so
// callers pass a pointer to a long-lived struct rather than a closure, and
// the per-worker label contexts are prebuilt when a lane is created.
package pool

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Runner executes one task of a batch. worker identifies the scratch arena
// to use (0 <= worker < Pool.Workers(); on the inline path it is always 0)
// and task is the batch index. Distinct tasks of one batch must be
// independent: they run concurrently and in no particular order.
type Runner interface {
	RunTask(worker, task int)
}

// Pool is a persistent set of worker goroutines. It is not safe for
// concurrent Run calls — the machine and live backends drive it from their
// single control-node loop. Goroutines are started lazily on the first
// parallel Run, so building a Pool that never goes parallel costs nothing
// and leaks nothing.
type Pool struct {
	name    string
	n       int
	kick    chan struct{}
	wg      sync.WaitGroup
	next    atomic.Int64
	r       Runner
	tasks   int
	labels  []context.Context // active lane's per-worker label contexts
	started bool
	stopped bool
}

// Lane is a named entry point into a pool. Lanes exist purely for profiling
// attribution: each carries prebuilt per-worker pprof label contexts
// (pool=<pool>, lane=<lane>, worker=<i>) that workers adopt for the duration
// of a batch, at zero allocation per Run.
type Lane struct {
	p    *Pool
	ctxs []context.Context
}

// New builds a pool of n workers (minimum 1). Workers are not started until
// the first parallel Run.
func New(name string, n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{name: name, n: n, kick: make(chan struct{}, n)}
}

// Workers reports the pool size — the exclusive upper bound on the worker
// index a Runner can observe, and so the arena count a caller must provision.
func (p *Pool) Workers() int { return p.n }

// Lane creates a named lane with its label contexts prebuilt.
func (p *Pool) Lane(name string) *Lane {
	l := &Lane{p: p, ctxs: make([]context.Context, p.n)}
	for i := range l.ctxs {
		l.ctxs[i] = pprof.WithLabels(context.Background(),
			pprof.Labels("pool", p.name, "lane", name, "worker", strconv.Itoa(i)))
	}
	return l
}

// Workers reports the size of the lane's pool.
func (l *Lane) Workers() int { return l.p.n }

// Run executes tasks 0..tasks-1 on at most min(maxWorkers, pool size, tasks)
// workers and returns when all are done. With one task, a cap of one worker,
// or a stopped pool the batch runs inline on the caller as worker 0 — the
// exact sequential order 0,1,2,… — so callers use one code path for both.
func (l *Lane) Run(r Runner, tasks, maxWorkers int) {
	if tasks <= 0 {
		return
	}
	p := l.p
	if tasks == 1 || maxWorkers <= 1 || p.n <= 1 || p.stopped {
		for i := 0; i < tasks; i++ {
			r.RunTask(0, i)
		}
		return
	}
	if !p.started {
		p.start()
	}
	p.r, p.tasks, p.labels = r, tasks, l.ctxs
	p.next.Store(0)
	k := p.n
	if k > maxWorkers {
		k = maxWorkers
	}
	if k > tasks {
		k = tasks
	}
	p.wg.Add(k)
	for i := 0; i < k; i++ {
		p.kick <- struct{}{}
	}
	p.wg.Wait()
	p.r, p.labels = nil, nil
}

func (p *Pool) start() {
	p.started = true
	for i := 0; i < p.n; i++ {
		go func(idx int) {
			pprof.Do(context.Background(),
				pprof.Labels("pool", p.name, "worker", strconv.Itoa(idx)),
				func(context.Context) { p.worker(idx) })
		}(i)
	}
}

func (p *Pool) worker(idx int) {
	for range p.kick {
		pprof.SetGoroutineLabels(p.labels[idx])
		r, n := p.r, p.tasks
		for {
			i := int(p.next.Add(1)) - 1
			if i >= n {
				break
			}
			r.RunTask(idx, i)
		}
		p.wg.Done()
	}
}

// Stop shuts the workers down. Subsequent Runs execute inline; a second Stop
// is a no-op. Run/RunClosed-style callers invoke it on exit so a run leaves
// no goroutines behind.
func (p *Pool) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	if p.started {
		close(p.kick)
	}
}
