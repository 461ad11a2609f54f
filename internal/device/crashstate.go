package device

import (
	"errors"
	"fmt"
	"math"

	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// CrashLog records a device's crash state right after every FRAM write of
// one Run: everything besides the FRAM image that Resume needs to continue
// that Run as if the power had failed there. That is the clock, the supply,
// the MCU's attribution state (the charged component, the open scopes, the
// usage of every component, the FRAM counters last charged, the
// forced-failure arming) and the Run's own bookkeeping.
//
// Time, energy, the charged component's usage and the FRAM traffic not yet
// charged move between almost any two writes, so they are kept per write,
// in 72 bytes. The rest moves at component switches, scope changes and
// power failures, so a record of it is kept only when it changed. The log's
// buffers are reused by Reset.
type CrashLog struct {
	hot    []hotState
	cold   []coldState
	scopes []Component  // the open scopes of every cold record, concatenated
	extra  []extraUsage // the custom components of every cold record
}

// hotState is the part of a crash state kept per write.
type hotState struct {
	now     simclock.Time
	onTime  simclock.Duration
	level   float64 // energy.State.Level
	drained energy.Joules
	use     Usage // the charged component's usage
	// uncharged is the FRAM traffic the MCU has not charged yet: the
	// memory's counters minus the MCU's last charged ones, per field.
	uncharged [4]int32
	cold      int32 // index of the write's coldState
}

// coldState is the part of a crash state kept once per change. The
// charged component's entry in known is stale: hotState.use replaces it.
type coldState struct {
	gen          uint64
	comp         Component
	known        [5]Usage
	scopes       [2]int // range of CrashLog.scopes
	extra        [2]int // range of CrashLog.extra
	failAfter    simclock.Duration
	failArmed    bool
	run          runState
	offTime      simclock.Duration
	clockReboots int
	failures     int // energy.State.Failures
}

type extraUsage struct {
	comp Component
	use  Usage
}

// Reset empties the log, keeping its buffers.
func (l *CrashLog) Reset() {
	l.hot = l.hot[:0]
	l.cold = l.cold[:0]
	l.scopes = l.scopes[:0]
	l.extra = l.extra[:0]
}

// Reboots returns how many reboots the logged Run had made at crash state
// k (1-based).
func (l *CrashLog) Reboots(k int) int { return l.cold[l.hot[k-1].cold].run.reboots }

// Checkpointable reports why the device's crash states cannot be copied,
// or nil when they can: its clock must not draw off-period jitter from a
// random source, its supply must be one energy.Snapshot copies, and no
// OnReboot observer may be installed, since a resumed run would not show it
// the reboots before the crash.
func (d *Device) Checkpointable() error {
	if _, ok := d.MCU.Clock.State(); !ok {
		return errors.New("the clock draws off-period jitter from a random source")
	}
	if _, ok := energy.Snapshot(d.MCU.Supply); !ok {
		return fmt.Errorf("the %T supply cannot be copied", d.MCU.Supply)
	}
	if d.OnReboot != nil {
		return errors.New("an OnReboot observer would miss the reboots before the crash")
	}
	return nil
}

// Capture appends the device's current crash state to l. Call it right
// after a FRAM write, where a write crash hook would fire, or before the
// device first runs, on a device Checkpointable accepts.
func (l *CrashLog) Capture(d *Device) {
	m := d.MCU
	clock, _ := m.Clock.State()
	supply, _ := energy.Snapshot(m.Supply)
	if n := len(l.cold); n == 0 || l.cold[n-1].gen != m.gen || l.cold[n-1].run != d.run ||
		l.cold[n-1].failAfter != m.failAfter || l.cold[n-1].failArmed != m.failArmed ||
		l.cold[n-1].offTime != clock.OffTime || l.cold[n-1].clockReboots != clock.Reboots ||
		l.cold[n-1].failures != supply.Failures {
		c := coldState{gen: m.gen, comp: m.comp, known: m.known, failAfter: m.failAfter,
			failArmed: m.failArmed, run: d.run, offTime: clock.OffTime, clockReboots: clock.Reboots,
			failures: supply.Failures}
		c.scopes[0] = len(l.scopes)
		l.scopes = append(l.scopes, m.scopes...)
		c.scopes[1] = len(l.scopes)
		c.extra[0] = len(l.extra)
		for comp, u := range m.extra {
			l.extra = append(l.extra, extraUsage{comp, *u})
		}
		c.extra[1] = len(l.extra)
		l.cold = append(l.cold, c)
	}
	s := m.Mem.Stats()
	l.hot = append(l.hot, hotState{now: clock.Now, onTime: clock.OnTime, level: supply.Level,
		drained: supply.Drained, use: *m.use, cold: int32(len(l.cold) - 1),
		uncharged: [4]int32{
			delta32(s.Reads, m.lastStats.Reads), delta32(s.Writes, m.lastStats.Writes),
			delta32(s.BytesRead, m.lastStats.BytesRead), delta32(s.BytesWritten, m.lastStats.BytesWritten),
		}})
}

// delta32 is a-b, which must fit an int32: a crash state keeps the FRAM
// traffic between two charges in that width.
func delta32(a, b int64) int32 {
	d := a - b
	if d < math.MinInt32 || d > math.MaxInt32 {
		panic(fmt.Sprintf("device: %d bytes of FRAM traffic between two charges", d))
	}
	return int32(d)
}

// Restore puts the device into crash state k of l (1-based: the state
// right after the k-th write the log recorded) without running anything:
// the clock, the supply, the MCU's attribution state and the Run's
// bookkeeping. The device's FRAM must already hold the image and counters
// of that instant (see nvm.Memory.Restore), from which the FRAM traffic
// the MCU had not charged yet is derived, and the device must be built
// like the logged one. Resume continues a Run from there; a log of a
// device that has not run yet holds its post-construction state, which a
// released deployment is re-armed to.
func (d *Device) Restore(l *CrashLog, k int) error {
	if k < 1 || k > len(l.hot) {
		return fmt.Errorf("device: crash state %d outside a log of %d", k, len(l.hot))
	}
	h := &l.hot[k-1]
	c := &l.cold[h.cold]
	m := d.MCU
	m.Clock.Restore(simclock.State{Now: h.now, OnTime: h.onTime, OffTime: c.offTime, Reboots: c.clockReboots})
	energy.Restore(m.Supply, energy.State{Level: h.level, Drained: h.drained, Failures: c.failures})
	m.comp, m.known = c.comp, c.known
	m.extra = nil
	for _, e := range l.extra[c.extra[0]:c.extra[1]] {
		if m.extra == nil {
			m.extra = make(map[Component]*Usage)
		}
		u := e.use
		m.extra[e.comp] = &u
	}
	m.use = m.usage(c.comp)
	*m.use = h.use
	s := m.Mem.Stats()
	m.lastStats = nvm.Stats{
		Reads: s.Reads - int64(h.uncharged[0]), Writes: s.Writes - int64(h.uncharged[1]),
		BytesRead: s.BytesRead - int64(h.uncharged[2]), BytesWritten: s.BytesWritten - int64(h.uncharged[3]),
	}
	m.scopes = append(m.scopes[:0], l.scopes[c.scopes[0]:c.scopes[1]]...)
	m.failAfter, m.failArmed = c.failAfter, c.failArmed
	m.gen++
	d.run = c.run
	return nil
}

// Resume continues a Run from crash state k of l as if the power had
// failed there (see Restore for what it puts back and what it needs).
//
// After restoring the device it closes the scopes that were open at the
// write, innermost first, with the same SetComponent calls the failure's
// unwinding makes: each may flush pending FRAM energy into the supply and
// brown out again, which is recovered as Run recovers it. It then reboots
// and runs boot like Run.
func (d *Device) Resume(boot func() error, l *CrashLog, k int) (RunResult, error) {
	if err := d.Restore(l, k); err != nil {
		return RunResult{}, err
	}
	for len(d.MCU.scopes) > 0 {
		d.attempt(d.leave)
	}
	if !d.reboot() {
		return d.result(), ErrNonTermination
	}
	return d.loop(boot)
}

// leave closes the MCU's innermost scope; Resume runs it as a boot
// attempt, so a brown-out inside is recovered.
func (d *Device) leave() error {
	d.MCU.Leave()
	return nil
}
