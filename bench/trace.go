package main

import (
	"time"

	"batchsched/internal/admit"
	"batchsched/internal/machine"
	"batchsched/internal/model"
	"batchsched/internal/obs"
	"batchsched/internal/pool"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
)

// tracer records the traced pass from outside the program: it wraps the
// scheduler and the workload generator each run is built with, and is the
// run's service epoch hook. Every backend calls these from one goroutine
// (the simulator loop or the live control node), so the tracer needs no
// locking.
type tracer struct {
	request, admit, commit calls
	admitOK                int
	blocks, delays         int
	gen                    time.Duration
	depths                 []float64 // admission queue depth at epoch ends
	arrivals, sheds        int
}

// calls counts one kind of protocol call and the time spent in it.
type calls struct {
	n    int
	time time.Duration
}

func (c *calls) add(start time.Time) {
	c.n++
	c.time += time.Since(start)
}

// wrapSched decorates s so every protocol call is timed.
func (tr *tracer) wrapSched(s sched.Scheduler) sched.Scheduler { return &tracedSched{inner: s, tr: tr} }

// wrapGen decorates g so step generation is timed.
func (tr *tracer) wrapGen(g machine.Generator) machine.Generator {
	return tracedGen{inner: g, tr: tr}
}

// epoch is the service epoch hook.
func (tr *tracer) epoch(es admit.EpochStats) {
	tr.depths = append(tr.depths, float64(es.QueueDepth))
	tr.arrivals += es.Arrivals
	tr.sheds += es.Sheds
}

type tracedGen struct {
	inner machine.Generator
	tr    *tracer
}

func (g tracedGen) Steps(rng *sim.RNG) []model.Step {
	start := time.Now()
	steps := g.inner.Steps(rng)
	g.tr.gen += time.Since(start)
	return steps
}

// tracedSched times a scheduler's protocol calls. It forwards the optional
// interfaces backends probe for (sched.LoadAware, sched.AdmitScreener,
// sched.Audited, sched.DecisionParallel) only when the wrapped scheduler
// implements them, so wrapping changes no decision.
type tracedSched struct {
	inner sched.Scheduler
	tr    *tracer
}

func (s *tracedSched) Name() string { return s.inner.Name() }

func (s *tracedSched) Admit(t *model.Txn) (bool, sim.Time) {
	start := time.Now()
	ok, cpu := s.inner.Admit(t)
	s.tr.admit.add(start)
	if ok {
		s.tr.admitOK++
	}
	return ok, cpu
}

func (s *tracedSched) Request(t *model.Txn) sched.Outcome {
	start := time.Now()
	out := s.inner.Request(t)
	s.tr.request.add(start)
	switch out.Decision {
	case sched.Block:
		s.tr.blocks++
	case sched.Delay:
		s.tr.delays++
	}
	return out
}

func (s *tracedSched) Validate(t *model.Txn) (bool, sim.Time) {
	start := time.Now()
	ok, cpu := s.inner.Validate(t)
	s.tr.commit.add(start)
	return ok, cpu
}

func (s *tracedSched) Committed(t *model.Txn) {
	start := time.Now()
	s.inner.Committed(t)
	s.tr.commit.add(start)
}

func (s *tracedSched) Aborted(t *model.Txn) {
	start := time.Now()
	s.inner.Aborted(t)
	s.tr.commit.add(start)
}

// SetLoadProbe implements sched.LoadAware.
func (s *tracedSched) SetLoadProbe(probe func(model.FileID) float64) {
	if la, ok := s.inner.(sched.LoadAware); ok {
		la.SetLoadProbe(probe)
	}
}

// PrescreenAdmits implements sched.AdmitScreener; its time counts as
// admission time, without adding an Admit call.
func (s *tracedSched) PrescreenAdmits(ts []*model.Txn) {
	if as, ok := s.inner.(sched.AdmitScreener); ok {
		start := time.Now()
		as.PrescreenAdmits(ts)
		s.tr.admit.time += time.Since(start)
	}
}

// SetAudit implements sched.Audited.
func (s *tracedSched) SetAudit(a *obs.Audit) {
	if au, ok := s.inner.(sched.Audited); ok {
		au.SetAudit(a)
	}
}

// DecisionWorkers implements sched.DecisionParallel; 0 keeps backends on
// the sequential path for schedulers without a parallel engine.
func (s *tracedSched) DecisionWorkers() int {
	if dp, ok := s.inner.(sched.DecisionParallel); ok {
		return dp.DecisionWorkers()
	}
	return 0
}

// SetDecisionLane implements sched.DecisionParallel.
func (s *tracedSched) SetDecisionLane(l *pool.Lane) {
	if dp, ok := s.inner.(sched.DecisionParallel); ok {
		dp.SetDecisionLane(l)
	}
}
