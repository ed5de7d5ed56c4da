package machine

import (
	"batchsched/internal/engine"
	"batchsched/internal/fault"
	"batchsched/internal/sim"
)

// stepRun tracks one dispatch attempt of one granted step: its cohorts and
// whether the attempt has been invalidated by a fault. A fresh stepRun is
// made per retry so stale timers and cohort completions of a superseded
// attempt are ignored via the dead flag.
type stepRun struct {
	e       *engine.Exec
	home    int // the step file's home node (fault attribution)
	attempt int // 0-based dispatch attempt
	pending int // cohorts not yet completed
	cohorts []*cohort
	dead    bool
}

// wireFaults builds the fault injector when any knob is set. Fault draws
// come from the dedicated "fault" stream of the master seed, so the
// crash/straggler schedule depends only on (seed, fault config) — never on
// the workload or the scheduler under test — and failure-free runs draw
// nothing extra.
func (m *Machine) wireFaults(rng *sim.RNG) error {
	if !m.cfg.Faults.Enabled() {
		return nil
	}
	inj, err := fault.NewInjector(m.cfg.Faults, m.cfg.NumNodes, m.eng, rng.Stream("fault"), fault.Hooks{
		Crash:     m.onCrash,
		Restore:   m.onRestore,
		SlowStart: m.onSlowStart,
		SlowEnd:   m.onSlowEnd,
	})
	if err != nil {
		return err
	}
	m.inj = inj
	return nil
}

func (m *Machine) faultEvent(kind string, node int) {
	if fo, ok := m.obs.(engine.FaultObserver); ok {
		fo.Fault(kind, node, m.eng.Now())
	}
}

// onCrash takes the node down and aborts every transaction that had a
// cohort resident there (their sibling cohorts on healthy nodes die too).
func (m *Machine) onCrash(node int, now sim.Time) {
	m.met.NodeDown(now)
	m.faultEvent("crash", node)
	for _, c := range m.dpns[node].crash() {
		if c.run != nil {
			m.abortRun(c.run, "crash")
		}
	}
}

func (m *Machine) onRestore(node int, now sim.Time) {
	m.met.NodeUp(now)
	m.faultEvent("restore", node)
	m.dpns[node].restore()
}

func (m *Machine) onSlowStart(node int, factor float64, now sim.Time) {
	m.met.StragglerStart(now)
	m.faultEvent("slow", node)
	m.dpns[node].setSlow(factor)
}

func (m *Machine) onSlowEnd(node int, now sim.Time) {
	m.met.StragglerEnd(now)
	m.faultEvent("slowend", node)
	m.dpns[node].setSlow(1)
}

// msgDelay is the network delay of one CN<->DPN message, including any
// injected extra latency.
func (m *Machine) msgDelay() sim.Time {
	d := m.cfg.NetDelay
	if m.inj != nil {
		d += m.inj.MsgExtraDelay()
	}
	return d
}

// armTimeout books the control node's retry timer for a dispatch whose
// request or reply message was lost. The model is omniscient about loss —
// the timer is armed only when a message actually went missing — so no
// timer bookkeeping is needed on the (common) healthy path and the
// failure-free event sequence is untouched.
func (m *Machine) armTimeout(run *stepRun) {
	m.eng.SchedulePayload(m.inj.Timeout(), m.onTimeout, run)
}

// stepTimeout retires the timed-out attempt and either re-dispatches the
// step or, once the retry budget is spent, aborts the transaction.
func (m *Machine) stepTimeout(run *stepRun) {
	run.dead = true
	m.killCohorts(run)
	e := run.e
	if run.attempt >= m.inj.Retries() {
		m.met.MsgAbort()
		m.cn.Abort(e, "timeout")
		return
	}
	m.met.MsgRetry()
	if fo, ok := m.obs.(engine.FaultObserver); ok {
		fo.Retried(e.Txn, run.attempt+1, m.eng.Now())
	}
	m.cn.Redispatch(e, run.attempt+1)
}

// abortRun invalidates a dispatch attempt killed by a node crash and aborts
// its transaction.
func (m *Machine) abortRun(run *stepRun, reason string) {
	if run.dead {
		return
	}
	run.dead = true
	m.killCohorts(run)
	m.met.CrashAbort()
	m.cn.Abort(run.e, reason)
}

// killCohorts marks every cohort of a retired dispatch attempt dead, then
// tells each cohort's node — fast-forward nodes must re-derive their
// completion forecast once a resident cohort stops consuming service. Each
// node is synced to the kill instant BEFORE any flag is set: service
// boundaries up to this moment were served with the cohorts still live, and
// replaying them later against raised dead flags would retroactively drop
// quanta the stepped engine charged. All cohorts are then marked before any
// node is notified so a node holding several of them re-forecasts against
// the final state.
func (m *Machine) killCohorts(run *stepRun) {
	for _, c := range run.cohorts {
		if c.node != nil {
			c.node.sync()
		}
	}
	for _, c := range run.cohorts {
		c.dead = true
	}
	for _, c := range run.cohorts {
		if c.node != nil {
			c.node.deadMarked()
		}
	}
}
