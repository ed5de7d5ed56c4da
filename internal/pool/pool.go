// Package pool is a compile stub: bench/trace.go is its only user, and it
// is deleted together with that file's forwarding of sched.DecisionParallel.
package pool

// Lane is kept for bench/trace.go only.
type Lane struct{}
