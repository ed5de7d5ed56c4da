package sched

import (
	"batchsched/internal/model"
	"batchsched/internal/pool"
)

// Compile stub: bench/trace.go is the only user. Its scheduler decorator
// still forwards these two interfaces; no scheduler implements them and no
// backend probes for them. Delete them together with that forwarding.

// DecisionParallel is kept for bench/trace.go only.
type DecisionParallel interface {
	DecisionWorkers() int
	SetDecisionLane(*pool.Lane)
}

// AdmitScreener is kept for bench/trace.go only.
type AdmitScreener interface{ PrescreenAdmits([]*model.Txn) }
