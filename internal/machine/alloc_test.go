package machine

import (
	"testing"

	"batchsched/internal/metrics"
	"batchsched/internal/sim"
)

// TestDPNSteadyStateAllocFree pins the allocation audit at the node layer:
// a warmed DPN cycling pooled cohorts — completion, a payload-event round
// trip standing in for the CN hop, redelivery — must run without a single
// allocation per event. Redeliveries to the busy node and a recurring
// straggler toggle both move the forecast, so the completion booking
// (ScheduleAtTie) is canceled and rebooked throughout. Everything reusable
// is created at setup: cohorts, their done closures, and the prebound
// redelivery and toggle handlers.
func TestDPNSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	met := metrics.NewCollector(1, 0)
	d := newDPN(0, eng, met)

	const residents = 6
	cohorts := make([]*cohort, residents)
	// readd returns a completed cohort to the node after a fixed message
	// delay, with fresh demand; prebound once so SchedulePayload stays on
	// the engine's no-closure path.
	readd := func(now sim.Time, arg any) {
		c := arg.(*cohort)
		c.remaining = 7 * sim.Millisecond
		d.add(c)
	}
	for i := range cohorts {
		c := &cohort{remaining: 7 * sim.Millisecond, quantum: 2 * sim.Millisecond}
		c.done = func() {
			eng.SchedulePayload(2*sim.Millisecond, readd, c)
		}
		cohorts[i] = c
	}
	for i, c := range cohorts {
		i, c := i, c
		eng.ScheduleAt(sim.Time(i)*sim.Millisecond, func(sim.Time) { d.add(c) })
	}
	var toggle sim.Handler
	toggle = func(sim.Time) {
		if d.slow > 1 {
			d.setSlow(1)
		} else {
			d.setSlow(1.5)
		}
		eng.Schedule(5*sim.Millisecond, toggle)
	}
	eng.Schedule(5*sim.Millisecond, toggle)

	// Warm the free lists, the ring, and the calendar.
	horizon := sim.Time(0)
	step := func() {
		horizon += 100 * sim.Millisecond
		for eng.Step(horizon) {
		}
	}
	step()
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("steady-state allocations: %v per 100ms window, want 0", avg)
	}
	if eng.Executed() == 0 || met.DPNBusyTime(0) == 0 {
		t.Fatal("steady-state loop did not actually run")
	}
}
