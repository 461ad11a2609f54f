// Package device models the intermittently powered microcontroller that
// executes the runtime, application tasks, and monitors.
//
// The MCU converts work (CPU cycles, peripheral operations, FRAM traffic)
// into simulated time and energy, draining the configured power supply. When
// the supply browns out, the MCU raises a power failure: all volatile state
// is lost, the device sits dark while the capacitor recharges, and execution
// restarts from the boot entry point. Device.Run drives that reboot loop and
// detects non-termination — the failure mode Figure 12 shows for Mayfly —
// via a reboot budget.
//
// Every drop of time and energy is attributed to the currently executing
// component (application logic, runtime, or monitor), which is how the
// overhead breakdowns of Figures 14 and 15 are measured.
package device

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// Component labels the code that is currently consuming time and energy.
type Component string

// The components the evaluation attributes costs to. The paper's Figures
// 14/15 use the first three; CompIntegrity isolates the self-healing
// layer's scrub/verify overhead so it never pollutes those comparisons.
const (
	CompApp       Component = "app"
	CompRuntime   Component = "runtime"
	CompMonitor   Component = "monitor"
	CompIntegrity Component = "integrity"
	// CompTelemetry isolates the flight recorder's NVM traffic and CPU
	// cycles, making the observability tax a measured line item instead of
	// noise in the paper's comparisons.
	CompTelemetry Component = "telemetry"
)

// Usage is the accumulated cost of one component.
type Usage struct {
	Time   simclock.Duration
	Energy energy.Joules
}

// PowerFailure is the panic sentinel raised when the supply browns out. It
// models the hardware reset: it unwinds the entire volatile call stack up to
// Device.Run, which recovers it and reboots. Code other than Device.Run must
// never recover it.
type PowerFailure struct {
	At simclock.Time
}

func (p PowerFailure) String() string {
	return fmt.Sprintf("power failure at %v", p.At)
}

// ErrNonTermination reports that the boot function did not complete within
// the reboot budget — the device is stuck re-executing without progress.
var ErrNonTermination = errors.New("device: non-termination (reboot budget exhausted)")

// MCU is the execution engine. Application tasks, the runtime, and monitors
// express their work through Exec, Peripheral, and FRAM traffic; the MCU
// turns it into simulated time and energy and fails over to the reboot loop
// when the supply is exhausted.
type MCU struct {
	Clock  *simclock.Clock
	Mem    *nvm.Memory
	Supply energy.Supply
	Prof   Profile

	comp Component
	// use points at comp's accumulator so account() — called for every
	// Exec, Idle, and peripheral op — mutates through a pointer instead of
	// a map read-modify-write on a string key.
	use *Usage
	// known holds the accumulators of the five predeclared components
	// inline, indexed by knownSlot, so the SetComponent switches on the
	// event hot path (runtime → monitor → runtime, twice per event) resolve
	// through a string switch and building an MCU allocates none of them.
	// Any other label (custom components in tests) gets an accumulator in
	// extra on first use.
	known     [5]Usage
	extra     map[Component]*Usage
	lastStats nvm.Stats

	// scopes holds, innermost last, the component each open Enter scope
	// switched away from; scopeBuf backs it so the usual depth allocates
	// nothing. A crash state copies the stack, and Device.Resume pops it
	// with the same SetComponent calls the power failure's unwinding makes.
	scopes   []Component
	scopeBuf [4]Component
	// gen counts changes of comp and scopes, so a crash-state log can tell
	// whether they moved since its last record without comparing them.
	gen uint64

	// failAfter, when positive, forces a power failure after that much more
	// execution time, regardless of supply state. Experiments use it to
	// place failures deterministically inside a specific task.
	failAfter simclock.Duration
	failArmed bool
}

// NewMCU wires an MCU from its parts. The profile is validated.
func NewMCU(clock *simclock.Clock, mem *nvm.Memory, supply energy.Supply, prof Profile) (*MCU, error) {
	if clock == nil || mem == nil || supply == nil {
		return nil, errors.New("device: nil clock, memory, or supply")
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	m := &MCU{
		Clock:     clock,
		Mem:       mem,
		Supply:    supply,
		Prof:      prof,
		comp:      CompApp,
		lastStats: mem.Stats(),
	}
	m.use = m.usage(CompApp)
	m.scopes = m.scopeBuf[:0]
	return m, nil
}

// knownSlot returns the index of a predeclared component's accumulator in
// MCU.known, or -1 for any other label.
func knownSlot(c Component) int {
	switch c {
	case CompApp:
		return 0
	case CompRuntime:
		return 1
	case CompMonitor:
		return 2
	case CompIntegrity:
		return 3
	case CompTelemetry:
		return 4
	}
	return -1
}

// usage returns the accumulator for a component, creating it on first use
// for a label other than the predeclared five.
func (m *MCU) usage(c Component) *Usage {
	if slot := knownSlot(c); slot >= 0 {
		return &m.known[slot]
	}
	u := m.extra[c]
	if u == nil {
		if m.extra == nil {
			m.extra = make(map[Component]*Usage)
		}
		u = &Usage{}
		m.extra[c] = u
	}
	return u
}

// SetComponent switches cost attribution and returns the previous component,
// so callers can restore it. Pending FRAM traffic is flushed to the outgoing
// component first, so each component is charged for its own memory
// accesses. A switch that must be undone when a power failure unwinds the
// caller is a scope: use Enter and a deferred Leave instead, so the MCU
// knows it is open.
func (m *MCU) SetComponent(c Component) Component {
	prev := m.comp
	if c != prev {
		m.account(0, 0)
		m.comp = c
		m.use = m.usage(c)
		m.gen++
	}
	return prev
}

// Enter opens a scope that charges c until the matching Leave, which the
// caller defers right after Enter returns:
//
//	mcu.Enter(device.CompRuntime)
//	defer mcu.Leave()
//
// The MCU keeps the open scopes, so a device resumed from a crash state can
// close them as a power failure's unwinding would (see Device.Resume). A
// brown-out inside Enter's own switch opens no scope, just as it leaves the
// caller's deferred Leave unregistered.
func (m *MCU) Enter(c Component) {
	prev := m.SetComponent(c)
	m.scopes = append(m.scopes, prev)
	m.gen++
}

// Leave closes the innermost scope, switching back to the component that
// was charged when it opened. The scope is closed before the switch, whose
// flush of pending FRAM energy may itself brown out.
func (m *MCU) Leave() {
	n := len(m.scopes) - 1
	prev := m.scopes[n]
	m.scopes = m.scopes[:n]
	m.gen++
	m.SetComponent(prev)
}

// Component returns the component currently charged for execution.
func (m *MCU) Component() Component { return m.comp }

// UsageOf returns the accumulated cost of one component.
func (m *MCU) UsageOf(c Component) Usage {
	if slot := knownSlot(c); slot >= 0 {
		return m.known[slot]
	}
	if u := m.extra[c]; u != nil {
		return *u
	}
	return Usage{}
}

// TotalUsage sums cost across all components in a fixed order — the
// predeclared components in knownSlot order, then any others by name — so
// repeated calls agree to the last bit: floating-point addition is not
// associative, so summing in map order would let the Energy total depend on
// iteration order.
func (m *MCU) TotalUsage() Usage {
	var u Usage
	add := func(v Usage) {
		u.Time += v.Time
		u.Energy += v.Energy
	}
	for _, v := range m.known {
		add(v)
	}
	if len(m.extra) > 0 {
		names := make([]Component, 0, len(m.extra))
		for c := range m.extra {
			names = append(names, c)
		}
		slices.Sort(names)
		for _, c := range names {
			add(*m.extra[c])
		}
	}
	return u
}

// ArmFailureAfter forces a power failure once d more of execution time has
// elapsed. Experiments use this to land a failure inside a chosen task.
func (m *MCU) ArmFailureAfter(d simclock.Duration) {
	m.failAfter = d
	m.failArmed = true
}

// DisarmFailure cancels a pending forced failure.
func (m *MCU) DisarmFailure() { m.failArmed = false }

// Idle waits for d in a low-power mode: time passes and idle power drains,
// but no CPU work is performed. Radio backoff and sensor settling use it.
func (m *MCU) Idle(d simclock.Duration) {
	if d <= 0 {
		return
	}
	m.spend(d, m.Prof.IdlePower.Over(d))
}

// framDelta charges the FRAM traffic since the last call to the current
// component and returns its energy.
func (m *MCU) framDelta() energy.Joules {
	s := m.Mem.Stats()
	read := s.BytesRead - m.lastStats.BytesRead
	written := s.BytesWritten - m.lastStats.BytesWritten
	m.lastStats = s
	return energy.Joules(float64(read))*m.Prof.FRAMReadPerByte +
		energy.Joules(float64(written))*m.Prof.FRAMWritePerByte
}

// spend advances time by d and drains e (plus pending FRAM energy), raising
// PowerFailure on brown-out or when a forced failure triggers.
func (m *MCU) spend(d simclock.Duration, e energy.Joules) {
	if m.failArmed && d >= m.failAfter {
		// Consume the time up to the forced failure point, then fail.
		burn := m.failAfter
		m.failArmed = false
		m.account(burn, energy.Joules(float64(e)*float64(burn)/float64(max64(int64(d), 1))))
		panic(PowerFailure{At: m.Clock.Now()})
	}
	if m.failArmed {
		m.failAfter -= d
	}
	m.account(d, e)
}

func (m *MCU) account(d simclock.Duration, e energy.Joules) {
	e += m.framDelta()
	m.Clock.Advance(d)
	m.use.Time += d
	m.use.Energy += e
	if !m.Supply.Drain(m.Clock.Now(), e) {
		panic(PowerFailure{At: m.Clock.Now()})
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Exec runs cycles of CPU work for the current component.
func (m *MCU) Exec(cycles int64) {
	if cycles <= 0 {
		return
	}
	d := simclock.CyclesToDuration(cycles, m.Prof.ClockHz)
	m.spend(d, m.Prof.ActivePower.Over(d))
}

// Peripheral performs one operation on the named peripheral. Unknown
// peripherals panic: they are configuration bugs, not runtime conditions.
func (m *MCU) Peripheral(name string) {
	op, ok := m.Prof.Peripherals[name]
	if !ok {
		panic(fmt.Sprintf("device: unknown peripheral %q in profile %q", name, m.Prof.Name))
	}
	m.spend(op.Latency, op.Energy+m.Prof.ActivePower.Over(op.Latency))
}

// Radio performs one radio exchange of the given latency and energy on top
// of MCU active power; external-monitor deployments use it to charge event
// shipping to the host.
func (m *MCU) Radio(latency simclock.Duration, e energy.Joules) {
	m.spend(latency, e+m.Prof.ActivePower.Over(latency))
}

// Now returns the current simulated time.
func (m *MCU) Now() simclock.Time { return m.Clock.Now() }

// EnergyLevel reads the supply's remaining usable energy, or +Inf when the
// hardware has no way to measure it (§4.2.2's energy-awareness primitive is
// "contingent upon suitable hardware support").
func (m *MCU) EnergyLevel() energy.Joules { return energy.Level(m.Supply) }

// Device wraps an MCU with the reboot loop of an intermittently powered
// node.
type Device struct {
	MCU *MCU

	// MaxReboots bounds the reboot loop; exceeding it is reported as
	// non-termination. Defaults to 10000 when zero.
	MaxReboots int

	// OnReboot, when non-nil, observes each reboot: its ordinal and the
	// charging delay that preceded it.
	OnReboot func(n int, off simclock.Duration)

	// Tracer, when non-nil, records boot, power-failure, and recharge
	// events. Boot events are emitted inside the boot attempt, so a
	// brown-out while telemetry persists its own records is recovered like
	// any other power failure.
	Tracer *telemetry.Tracer

	// run is the bookkeeping of the Run in progress, kept on the device so
	// a crash state can copy it.
	run runState
}

// runState is Run's bookkeeping: where the run started, for its result,
// and the reboots so far.
type runState struct {
	start       simclock.Time
	startEnergy energy.Joules
	startActive simclock.Duration
	reboots     int
}

// RunResult summarises one application execution.
type RunResult struct {
	Completed bool
	Reboots   int
	// Elapsed is total wall time including charging; Active excludes it.
	Elapsed simclock.Duration
	Active  simclock.Duration
	// Energy is the total energy drained from the supply.
	Energy energy.Joules
}

// Run executes boot under intermittent power: boot is (re)invoked after
// every power failure until it returns, the reboot budget is exhausted
// (ErrNonTermination), or it returns a non-nil application error. Volatile
// state must live inside boot; persistent state in the MCU's nvm.Memory.
func (d *Device) Run(boot func() error) (RunResult, error) {
	d.run = runState{
		start:       d.MCU.Clock.Now(),
		startEnergy: d.MCU.Supply.Drained(),
		startActive: d.MCU.TotalUsage().Time,
	}
	return d.loop(boot)
}

// loop runs boot attempts until one returns or the reboot budget runs out.
func (d *Device) loop(boot func() error) (RunResult, error) {
	for {
		run := boot
		if d.Tracer != nil {
			n := d.run.reboots
			run = func() error {
				d.Tracer.Boot(n, d.MCU.Now())
				return boot()
			}
		}
		err, failed := d.attempt(run)
		if !failed {
			res := d.result()
			res.Completed = err == nil
			return res, err
		}
		if !d.reboot() {
			return d.result(), ErrNonTermination
		}
	}
}

// reboot follows a power failure: it counts the reboot and, within the
// budget, recharges the supply, advances the clock over the dark period
// and reports the outage. It returns false once the budget is exhausted.
func (d *Device) reboot() bool {
	maxReboots := d.MaxReboots
	if maxReboots <= 0 {
		maxReboots = 10000
	}
	d.run.reboots++
	if d.run.reboots > maxReboots {
		return false
	}
	failAt := d.MCU.Clock.Now()
	off := d.MCU.Supply.Recharge(failAt)
	d.MCU.Clock.PowerFailure(off)
	if d.Tracer != nil {
		d.Tracer.PowerFailure(failAt)
		level := float64(d.MCU.EnergyLevel()) * 1e6
		if math.IsInf(level, 0) || math.IsNaN(level) {
			level = -1 // unmeasurable supply
		}
		d.Tracer.EnergyCharge(d.MCU.Clock.Now(), off, level)
	}
	if d.OnReboot != nil {
		d.OnReboot(d.run.reboots, off)
	}
	return true
}

// attempt invokes boot once, converting a PowerFailure panic into
// failed=true. Other panics propagate: they are bugs.
func (d *Device) attempt(boot func() error) (err error, failed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(PowerFailure); !ok {
				panic(r)
			}
			failed = true
		}
	}()
	return boot(), false
}

func (d *Device) result() RunResult {
	return RunResult{
		Reboots: d.run.reboots,
		Elapsed: d.MCU.Clock.Now().Sub(d.run.start),
		Active:  d.MCU.TotalUsage().Time - d.run.startActive,
		Energy:  d.MCU.Supply.Drained() - d.run.startEnergy,
	}
}
