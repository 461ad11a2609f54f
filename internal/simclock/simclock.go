// Package simclock provides the simulated, persistent notion of time used by
// the whole framework.
//
// Intermittent systems lose their volatile state — including timer registers —
// on every power failure. ARTEMIS, like Mayfly and TICS, assumes a persistent
// timekeeping facility (e.g. remanence timekeepers such as CusTARD, or
// harvested-power time estimation) so that timestamps attached to monitor
// events remain meaningful across reboots. This package models exactly that
// facility: a clock whose value is the number of microseconds since the very
// first boot of the device, which keeps counting through power failures and
// may optionally accumulate a bounded estimation error while the device is
// off, mimicking the accuracy limits of real remanence timekeepers.
//
// All simulation time in this repository is expressed as simclock.Time and
// advanced explicitly by the device model; nothing reads the host clock, so
// every experiment is deterministic.
package simclock

import (
	"fmt"
	"math/rand"
)

// Time is an absolute instant: microseconds elapsed since the first boot of
// the simulated device. It survives power failures (persistent timekeeping).
type Time int64

// Duration is a span of simulated time in microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Minutes returns the duration as floating-point minutes.
func (d Duration) Minutes() float64 { return float64(d) / float64(Minute) }

// String renders the duration with an adaptive unit, e.g. "5m", "100ms".
func (d Duration) String() string {
	switch {
	case d == 0:
		return "0s"
	case d%Hour == 0:
		return fmt.Sprintf("%dh", d/Hour)
	case d%Minute == 0:
		return fmt.Sprintf("%dm", d/Minute)
	case d%Second == 0:
		return fmt.Sprintf("%ds", d/Second)
	case d%Millisecond == 0:
		return fmt.Sprintf("%dms", d/Millisecond)
	default:
		return fmt.Sprintf("%dus", int64(d))
	}
}

// String renders the instant as a duration since first boot.
func (t Time) String() string { return Duration(t).String() }

// Clock is the persistent simulated clock. The zero value is a clock at the
// instant of first boot with perfect off-time accounting.
//
// DriftPPM and OffJitterPPM model the two error sources of real persistent
// timekeepers: crystal drift while powered, and estimation error of the time
// spent powered off. Both default to zero (a perfect clock), which is what
// the paper's evaluation assumes.
type Clock struct {
	// DriftPPM is the powered-on drift in parts per million. Positive
	// values make the clock run fast.
	DriftPPM float64
	// OffJitterPPM bounds the random error applied to each off period, in
	// parts per million of that period. Requires Rand to be set.
	OffJitterPPM float64
	// Rand is the randomness source for off-period jitter. May be nil when
	// OffJitterPPM is zero.
	Rand *rand.Rand

	now Time

	// Accounting, useful for experiment reports.
	onTime  Duration // simulated time spent powered on
	offTime Duration // simulated time spent powered off (charging)
	reboots int
}

// Now returns the current simulated instant.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d of powered-on execution time.
// It panics if d is negative: the simulation never moves backwards.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %d", d))
	}
	if c.DriftPPM != 0 {
		d += Duration(float64(d) * c.DriftPPM / 1e6)
	}
	c.now = c.now.Add(d)
	c.onTime += d
}

// PowerFailure records a power failure followed by off microseconds of
// charging. The clock keeps counting through the outage — that is the whole
// point of persistent timekeeping — but may add bounded jitter to model the
// estimation error of remanence-based timekeepers.
func (c *Clock) PowerFailure(off Duration) {
	if off < 0 {
		panic(fmt.Sprintf("simclock: negative off period %d", off))
	}
	if c.OffJitterPPM != 0 && c.Rand != nil {
		jitter := Duration(float64(off) * c.OffJitterPPM / 1e6 * (2*c.Rand.Float64() - 1))
		if off+jitter < 0 {
			jitter = -off
		}
		off += jitter
	}
	c.now = c.now.Add(off)
	c.offTime += off
	c.reboots++
}

// OnTime returns the total powered-on time accumulated so far.
func (c *Clock) OnTime() Duration { return c.onTime }

// OffTime returns the total powered-off (charging) time accumulated so far.
func (c *Clock) OffTime() Duration { return c.offTime }

// Reboots returns the number of power failures recorded so far.
func (c *Clock) Reboots() int { return c.reboots }

// State is a clock's reading and its accounting: what a crash-state
// checkpoint copies to resume a run on another clock.
type State struct {
	Now     Time
	OnTime  Duration
	OffTime Duration
	Reboots int
}

// State returns the clock's reading and accounting. ok is false for a
// clock whose off-period jitter draws from a random source: the source's
// position cannot be copied, so neither can the clock.
func (c *Clock) State() (s State, ok bool) {
	return State{Now: c.now, OnTime: c.onTime, OffTime: c.offTime, Reboots: c.reboots},
		c.OffJitterPPM == 0 || c.Rand == nil
}

// Restore sets the clock's reading and accounting to s.
func (c *Clock) Restore(s State) {
	c.now, c.onTime, c.offTime, c.reboots = s.Now, s.OnTime, s.OffTime, s.Reboots
}

// Reset returns the clock to the first-boot state. Only experiments use
// this; a real persistent clock is never reset.
func (c *Clock) Reset() {
	c.now = 0
	c.onTime = 0
	c.offTime = 0
	c.reboots = 0
}

// CyclesToDuration converts CPU cycles at the given clock frequency to a
// simulated duration, rounding to the nearest microsecond (and at least one
// microsecond for any positive cycle count, so that work never takes zero
// time).
func CyclesToDuration(cycles int64, hz float64) Duration {
	if cycles <= 0 {
		return 0
	}
	d := Duration(float64(cycles) / hz * float64(Second))
	if d == 0 {
		d = Microsecond
	}
	return d
}

// ParseDuration parses the duration literals accepted by the ARTEMIS property
// specification language: an integer immediately followed by one of the units
// us, ms, s, min, m, h (e.g. "5min", "100ms", "3s"). Both "m" and "min"
// denote minutes, matching the paper's examples.
func ParseDuration(s string) (Duration, error) {
	if s == "" {
		return 0, fmt.Errorf("simclock: empty duration")
	}
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 {
		return 0, fmt.Errorf("simclock: duration %q does not start with a number", s)
	}
	var n int64
	for _, ch := range s[:i] {
		n = n*10 + int64(ch-'0')
	}
	var unit Duration
	switch s[i:] {
	case "us":
		unit = Microsecond
	case "ms":
		unit = Millisecond
	case "s", "sec":
		unit = Second
	case "m", "min":
		unit = Minute
	case "h":
		unit = Hour
	default:
		return 0, fmt.Errorf("simclock: unknown duration unit %q in %q", s[i:], s)
	}
	return Duration(n) * unit, nil
}
