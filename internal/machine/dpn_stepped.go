package machine

import "batchsched/internal/sim"

// The quantum-stepped service engine: one calendar event per round-robin
// service quantum. This is the original DPN loop, kept as the differential
// oracle for the fast-forward engine (dpn_ff.go) — the two must produce
// byte-identical completion times, busy accounting and event ordering. Only
// this package's tests select it (dpn.stepped, set by ffdiff_test.go).

// quantumDone (pre-bound as d.onQuantum) fires when the quantum in progress
// completes: charge its busy time, apply it to the cohort at the cursor,
// and serve the next.
func (d *dpn) quantumDone(now sim.Time) {
	d.pending = nil
	d.met.DPNBusy(d.id, d.curElapsed)
	c := d.ring[d.cur]
	if c.dead {
		d.ring = append(d.ring[:d.cur], d.ring[d.cur+1:]...)
		d.ob.End(c.span, now)
		d.serve()
		return
	}
	c.remaining -= d.curSlice
	if c.remaining <= 0 {
		d.ring = append(d.ring[:d.cur], d.ring[d.cur+1:]...)
		d.ob.End(c.span, now)
		if c.done != nil {
			c.done()
		} else if d.complete != nil {
			d.complete(c)
		}
	} else {
		d.cur++
	}
	d.serve()
}

// serve runs one quantum (or the cohort's remainder) for the cohort at the
// rotation cursor, then advances. Dead cohorts at the cursor are dropped;
// a quantum already under way for a cohort that dies mid-slice completes
// (the work is wasted) and the cohort is then dropped.
func (d *dpn) serve() {
	d.dropDeadAt(d.eng.Now())
	if len(d.ring) == 0 {
		d.busy = false
		return
	}
	c := d.ring[d.cur]
	slice := c.quantum
	if c.remaining < slice {
		slice = c.remaining
	}
	// The cohort under service stays at d.cur until the quantum completes:
	// arrivals append behind it and nothing else advances the cursor, so the
	// handler re-reads it from the ring.
	d.curSlice = slice
	d.curElapsed = d.slowRound(slice)
	d.pending = d.eng.Schedule(d.curElapsed, d.onQuantum)
}
