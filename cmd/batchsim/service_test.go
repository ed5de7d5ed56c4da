package main

import (
	"testing"
	"time"

	"batchsched"
	"batchsched/internal/sim"
)

func TestServicePolicyFlags(t *testing.T) {
	def := batchsched.DefaultAdmitPolicy()
	f := serviceRun{
		// -1 duration sentinels keep the policy defaults; 0 disables.
		interactive: -1, sloBatch: -1, sloInteractive: -1, overloadP95: -1,
	}
	pol, err := f.policy()
	if err != nil {
		t.Fatalf("default policy: %v", err)
	}
	if pol != def {
		t.Errorf("sentinel flags changed the policy:\n got  %+v\n want %+v", pol, def)
	}

	f = serviceRun{
		mpl: 12, epoch: 2 * time.Second, maxQueue: 64, interactive: 0.5,
		sloBatch: time.Minute, sloInteractive: 0, overloadP95: 0,
	}
	pol, err = f.policy()
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	if pol.MPL != 12 || pol.Epoch != 2*sim.Second || pol.MaxQueue != 64 {
		t.Errorf("shape flags: %+v", pol)
	}
	if pol.InteractiveFraction != 0.5 {
		t.Errorf("interactive = %g", pol.InteractiveFraction)
	}
	if pol.QueueSLO[0] != 60*sim.Second {
		t.Errorf("batch SLO = %v", pol.QueueSLO[0])
	}
	// Explicit zeros disable the interactive deadline and overload control.
	if pol.QueueSLO[1] != 0 || pol.OverloadP95 != 0 {
		t.Errorf("zeros did not disable: slo=%v p95=%v", pol.QueueSLO[1], pol.OverloadP95)
	}
}

// TestServiceUnknownArrival: an unknown -arrival fails a plain -service run
// and a -capacity run the same way, with one error line and exit 1, before
// anything is simulated.
func TestServiceUnknownArrival(t *testing.T) {
	for _, capacity := range []bool{false, true} {
		f := serviceRun{
			backend: "sim", sched: "GOW", params: batchsched.DefaultParams(),
			gen: batchsched.NewExp1Workload(16), cfg: batchsched.DefaultConfig(),
			wl: "exp1", lambda: 0.1, seed: 1, reps: 1, arrival: "nosuch",
			interactive: -1, sloBatch: -1, sloInteractive: -1, overloadP95: -1,
			capacity: capacity, capLo: 0.05, capHi: 0.5, capTol: 0.1,
		}
		if code := runServiceMode(f); code != 1 {
			t.Errorf("capacity=%v: exit code %d, want 1", capacity, code)
		}
	}
}
