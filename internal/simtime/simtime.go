package simtime

import (
	"fmt"
	"math"
	"time"
)

// Time is an instant in simulated time, in nanoseconds since boot.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel instant later than any reachable simulation time.
const Never Time = 1<<63 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the instant as a floating-point number of seconds since boot.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the instant as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the instant as a duration since boot, e.g. "1.204s".
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String formats the duration, e.g. "10.76ms".
func (d Duration) String() string { return time.Duration(d).String() }

// FromMillis builds a duration from a floating-point millisecond count,
// rounding to the nearest nanosecond.
func FromMillis(ms float64) Duration {
	return Duration(math.Round(ms * float64(Millisecond)))
}

// FromSeconds builds a duration from a floating-point second count,
// rounding to the nearest nanosecond.
func FromSeconds(s float64) Duration {
	return Duration(math.Round(s * float64(Second)))
}

// IterationsBefore returns the greatest n ≥ 0 such that
// start + n*step < limit: how many whole step-long iterations fit
// strictly before limit. It is the bulk-advance primitive behind
// analytic idle-span skipping — n identical idle cycles can be elided
// when n cycles end strictly before the next scheduled event, leaving
// the straddling cycle to be simulated honestly. step must be positive.
func IterationsBefore(start Time, step Duration, limit Time) int64 {
	if step <= 0 {
		panic("simtime: non-positive step")
	}
	gap := limit.Sub(start)
	if gap <= 0 {
		return 0
	}
	// Greatest n with n*step < gap  ⇔  n = ceil(gap/step) - 1.
	return (int64(gap) - 1) / int64(step)
}

// Hz describes a clock frequency and converts between cycles and time.
// The simulated machine runs at 100 MHz, matching the paper's Pentium.
type Hz int64

// CPUFrequency is the simulated processor clock: 100 MHz (100 cycles/µs).
const CPUFrequency Hz = 100_000_000

// CyclesIn returns the number of clock cycles that elapse in d at frequency h.
func (h Hz) CyclesIn(d Duration) int64 {
	// cycles = d[ns] * h[1/s] / 1e9, computed to avoid overflow for
	// realistic simulation spans (minutes at 100 MHz fits easily in int64).
	return int64(d) / (int64(Second) / int64(h))
}

// DurationOf returns the simulated time consumed by n clock cycles at frequency h.
func (h Hz) DurationOf(cycles int64) Duration {
	return Duration(cycles * (int64(Second) / int64(h)))
}

// CycleAt returns the value a free-running cycle counter started at boot
// would hold at instant t.
func (h Hz) CycleAt(t Time) int64 { return h.CyclesIn(Duration(t)) }

// Validate panics if the frequency does not divide a second evenly; the
// converters above rely on an integral nanosecond period.
func (h Hz) Validate() {
	if h <= 0 || int64(Second)%int64(h) != 0 {
		panic(fmt.Sprintf("simtime: frequency %d does not have an integral ns period", h))
	}
}
