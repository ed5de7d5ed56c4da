// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, a cancellable event calendar with FIFO tie-breaking, and
// seeded random-variate streams. It is the substrate every machine model in
// this repository runs on.
package sim

import "fmt"

// Time is a point on (or a span of) the virtual clock, in microseconds.
// The paper's unit is the millisecond ("1 clock = 1 millisecond"); we keep
// microsecond resolution so that fractional-object costs such as 0.2/8
// objects stay exact integers.
type Time int64

// Convenient durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Milliseconds returns d expressed in (possibly fractional) milliseconds.
func (d Time) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds returns d expressed in (possibly fractional) seconds.
func (d Time) Seconds() float64 { return float64(d) / float64(Second) }

// FromSeconds converts a duration in seconds to a Time span, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// String formats the time in seconds with millisecond precision.
func (d Time) String() string { return fmt.Sprintf("%.3fs", d.Seconds()) }
