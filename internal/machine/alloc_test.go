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
//
// Short cohorts are a few quanta each and a toggle lands inside every
// round. Long cohorts are a thousand quanta each and several rounds pass
// between toggles, so each replay takes the whole-round skip; their
// windows are long enough to hold completions and redeliveries.
func TestDPNSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		demand, toggle, window sim.Time
	}{
		{"short", 7 * sim.Millisecond, 5 * sim.Millisecond, 100 * sim.Millisecond},
		{"long", 2000 * sim.Millisecond, 50 * sim.Millisecond, 10 * sim.Second},
	} {
		t.Run(tc.name, func(t *testing.T) { dpnSteadyStateAllocs(t, tc.demand, tc.toggle, tc.window) })
	}
}

func dpnSteadyStateAllocs(t *testing.T, demand, toggleEvery, window sim.Time) {
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
		c.remaining = demand
		d.add(c)
	}
	for i := range cohorts {
		c := &cohort{remaining: demand, quantum: 2 * sim.Millisecond}
		c.done = func() {
			eng.SchedulePayload(2*sim.Millisecond, readd, c)
		}
		cohorts[i] = c
	}
	for i, c := range cohorts {
		i, c := i, c
		eng.Schedule(sim.Time(i)*sim.Millisecond, func(sim.Time) { d.add(c) })
	}
	var toggle sim.Handler
	toggle = func(sim.Time) {
		if d.slow > 1 {
			d.setSlow(1)
		} else {
			d.setSlow(1.5)
		}
		eng.Schedule(toggleEvery, toggle)
	}
	eng.Schedule(toggleEvery, toggle)

	// Warm the free lists, the ring, and the calendar.
	horizon := sim.Time(0)
	step := func() {
		horizon += window
		for eng.Step(horizon) {
		}
	}
	step()
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("steady-state allocations: %v per %v window, want 0", avg, window)
	}
	if eng.Executed() == 0 || met.DPNBusyTime(0) == 0 {
		t.Fatal("steady-state loop did not actually run")
	}
}
