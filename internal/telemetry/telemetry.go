// Package telemetry is the observability layer of the framework: a typed,
// structured event tracer that records what the device, runtime, monitors,
// and integrity layer actually did during a run, plus a crash-resilient NVM
// flight recorder holding the most recent events across power failures.
//
// Two views of the same event stream coexist:
//
//   - The volatile log: every event ever emitted, kept in host memory. This
//     is the omniscient simulation trace the exporters (Chrome trace JSON,
//     JSONL, Prometheus-style metrics) render; like Config.OnDecision it
//     sees even the events a power failure wiped before they persisted.
//   - The flight recorder: a bounded ring of recent events persisted in NVM
//     through the same two-phase CommitGroup machinery the runtime commits
//     with, so a power failure at any byte leaves the last committed ring
//     intact. This is what the device itself would know after a reboot, and
//     what chaos campaigns attach to unrecoverable fault outcomes.
//
// The tracer is opt-in and allocation-free when disabled: every emit method
// is safe on a nil *Tracer and returns before touching any state, so the
// runtime's task-commit hot path pays nothing when telemetry is off (proved
// by a testing.AllocsPerRun test). Persisting flight-recorder slots is
// charged to the device energy model under its own component
// (device.CompTelemetry) via an injected charge hook, so the observability
// tax is measured, never free.
//
// This package is distinct from internal/trace, which renders the
// experiment harness's textual tables and timelines; telemetry records
// machine-readable events from inside the simulated stack.
package telemetry

import (
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// Owner is the NVM accounting label for flight-recorder state (Table 2).
const Owner = "telemetry"

// RecordCycles is the synthetic CPU cost of formatting and persisting one
// flight-recorder slot — a handful of word stores plus ring index math on
// the MSP430 class of MCU. The charge hook multiplies it by the batch size.
const RecordCycles = 32

// Kind identifies the event type.
type Kind uint8

// The event taxonomy. Values are persisted in flight-recorder slots, so
// they are append-only: never renumber an existing kind.
const (
	KindBoot              Kind = iota + 1 // device booted (A = reboot ordinal)
	KindPowerFailure                      // supply browned out
	KindEnergyCharge                      // charging period ended (A = off µs, Data = level µJ)
	KindTaskStart                         // start event created (Name = task, A = path)
	KindTaskEnd                           // end event created (Name = task, A = path, Data = dep data)
	KindTaskCommit                        // task outputs + control committed (Name = task, A = path)
	KindMonitorTransition                 // FSM moved (Name = machine, Aux = to-state, A = from-state name index)
	KindPropertyFail                      // property violated (Name = machine, Aux = action, A = path)
	KindActionTaken                       // arbitrated action executed (Name = action, Aux = machine, A = path)
	KindScrubRepair                       // integrity repair (Name = policy, Aux = guard)
	KindSpecSwap                          // OTA spec activated (Name = "ota", A = new version)
	KindSwapRollback                      // OTA swap rolled back (Name = reason, A = staged version)
	KindInputStale                        // stale input detected (Name = producer, Aux = consumer, A = age µs, -1 = never collected)
	KindReCollect                         // stale input re-collected (Name = producer, Aux = consumer)

	kindCount
)

// String names the kind for exports and dumps.
func (k Kind) String() string {
	switch k {
	case KindBoot:
		return "boot"
	case KindPowerFailure:
		return "powerFailure"
	case KindEnergyCharge:
		return "energyCharge"
	case KindTaskStart:
		return "taskStart"
	case KindTaskEnd:
		return "taskEnd"
	case KindTaskCommit:
		return "taskCommit"
	case KindMonitorTransition:
		return "monitorTransition"
	case KindPropertyFail:
		return "propertyFail"
	case KindActionTaken:
		return "actionTaken"
	case KindScrubRepair:
		return "scrubRepair"
	case KindSpecSwap:
		return "specSwap"
	case KindSwapRollback:
		return "swapRollback"
	case KindInputStale:
		return "inputStale"
	case KindReCollect:
		return "reCollect"
	}
	return "unknown"
}

// Valid reports whether k is a defined event kind.
func (k Kind) Valid() bool { return k >= KindBoot && k < kindCount }

// Event is one telemetry record. Strings are interned: Name and Aux index
// the tracer's string table (resolve with NameOf), which keeps the record a
// fixed-width value both in the volatile log and in a 40-byte NVM slot.
// The meaning of Name, Aux, A, and Data is kind-specific (see the Kind
// constants).
type Event struct {
	Kind Kind
	Seq  uint64 // global emit ordinal, starting at 1
	At   simclock.Time
	Name int32 // interned primary name (-1 = none)
	Aux  int32 // interned secondary name (-1 = none)
	A    int64
	Data float64
}

// Tracer records structured events. The zero value is not usable; construct
// with New. A nil *Tracer is the disabled tracer: every method is a no-op.
type Tracer struct {
	names   []string
	nameIdx map[string]int32

	events  []Event // the volatile full log
	pending []Event // staged for the next flight-recorder flush
	seq     uint64

	flight *Flight

	// charge, when non-nil, wraps every flight-recorder flush so its FRAM
	// traffic and CPU cycles land on the telemetry component of the device
	// energy model. Injected by the assembly layer to avoid an import cycle.
	charge func(events int, persist func())

	commitFlips uint64
}

// New constructs an enabled tracer with no flight recorder attached.
func New() *Tracer {
	return &Tracer{nameIdx: map[string]int32{}}
}

// SetCharge installs the energy-accounting hook wrapped around every
// flight-recorder flush. The hook must call persist exactly once.
func (t *Tracer) SetCharge(fn func(events int, persist func())) {
	if t == nil {
		return
	}
	t.charge = fn
}

// intern maps a string to its stable index in the tracer's name table.
func (t *Tracer) intern(s string) int32 {
	if i, ok := t.nameIdx[s]; ok {
		return i
	}
	i := int32(len(t.names))
	t.names = append(t.names, s)
	t.nameIdx[s] = i
	return i
}

// NameOf resolves an interned name index ("" when out of range or -1).
func (t *Tracer) NameOf(i int32) string {
	if t == nil || i < 0 || int(i) >= len(t.names) {
		return ""
	}
	return t.names[i]
}

// emit appends the event to the volatile log and, when a flight recorder is
// attached, stages it; persist flushes the staged batch to NVM.
func (t *Tracer) emit(ev Event, persist bool) {
	t.seq++
	ev.Seq = t.seq
	t.events = append(t.events, ev)
	if t.flight == nil {
		return
	}
	t.pending = append(t.pending, ev)
	if persist {
		t.flush()
	}
}

// flush persists the staged events into the flight ring, charged through
// the hook when one is installed. A power failure anywhere inside the flush
// (including the energy charge itself) leaves the previous committed ring
// intact; the staged batch is then volatile state that the failure wipes.
func (t *Tracer) flush() {
	if t.flight == nil || len(t.pending) == 0 {
		return
	}
	batch := t.pending
	persist := func() { t.flight.append(batch) }
	if t.charge != nil {
		t.charge(len(batch), persist)
	} else {
		persist()
	}
	t.pending = t.pending[:0]
}

// Boot records a device boot and is the recovery point of the flight
// recorder: the ring's staging is reloaded from the last committed image,
// then any events staged while the device was dark (the power failure and
// charge records) persist together with the boot record. Device.Run calls
// it inside the boot attempt, so a brown-out during telemetry persistence
// is recovered like any other.
func (t *Tracer) Boot(n int, at simclock.Time) {
	if t == nil {
		return
	}
	if t.flight != nil {
		t.flight.reopen()
	}
	t.emit(Event{Kind: KindBoot, At: at, Name: -1, Aux: -1, A: int64(n)}, true)
}

// PowerFailure records a supply brown-out. Any events staged but not yet
// committed to the flight ring are lost with the power — exactly what a
// real device's volatile write buffer would lose.
func (t *Tracer) PowerFailure(at simclock.Time) {
	if t == nil {
		return
	}
	t.pending = t.pending[:0]
	t.emit(Event{Kind: KindPowerFailure, At: at, Name: -1, Aux: -1}, false)
}

// EnergyCharge records the end of a charging period: off is the time spent
// dark, levelUJ the usable energy after recharge (-1 when unmeasurable).
// Emitted while the device is still dark, so it persists at the next Boot.
func (t *Tracer) EnergyCharge(at simclock.Time, off simclock.Duration, levelUJ float64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindEnergyCharge, At: at, Name: -1, Aux: -1, A: int64(off), Data: levelUJ}, false)
}

// TaskStart records the creation of a start event (re-execution attempts
// each get their own, mirroring the runtime's restamping protocol).
func (t *Tracer) TaskStart(task string, path int, at simclock.Time) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindTaskStart, At: at, Name: t.intern(task), Aux: -1, A: int64(path)}, true)
}

// TaskEnd records the creation of an end event; at is the committed finish
// timestamp (never restamped on replay), data the dependent-data value.
func (t *Tracer) TaskEnd(task string, path int, at simclock.Time, data float64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindTaskEnd, At: at, Name: t.intern(task), Aux: -1, A: int64(path), Data: data}, true)
}

// TaskCommit records the atomic task-boundary commit of outputs + control.
func (t *Tracer) TaskCommit(task string, path int, at simclock.Time) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindTaskCommit, At: at, Name: t.intern(task), Aux: -1, A: int64(path)}, true)
}

// MonitorTransition records an FSM state change.
func (t *Tracer) MonitorTransition(machine, from, to string, at simclock.Time) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindMonitorTransition, At: at,
		Name: t.intern(machine), Aux: t.intern(to), A: int64(t.intern(from))}, true)
}

// PropertyFail records a signalled property violation.
func (t *Tracer) PropertyFail(machine, act string, path int, at simclock.Time) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindPropertyFail, At: at,
		Name: t.intern(machine), Aux: t.intern(act), A: int64(path)}, true)
}

// ActionTaken records the arbitrated corrective action the runtime executed.
func (t *Tracer) ActionTaken(act, machine string, path int, at simclock.Time) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindActionTaken, At: at,
		Name: t.intern(act), Aux: t.intern(machine), A: int64(path)}, true)
}

// ScrubRepair records an integrity-layer repair (policy: shadowRestore,
// reset, or quarantine) applied to the named guard.
func (t *Tracer) ScrubRepair(policy, guard string, at simclock.Time) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindScrubRepair, At: at,
		Name: t.intern(policy), Aux: t.intern(guard)}, true)
}

// SpecSwap records the atomic activation of a new OTA spec bundle version.
// Persisted, so a post-reboot flight dump shows which spec the device
// resumed on.
func (t *Tracer) SpecSwap(version uint64, at simclock.Time) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindSpecSwap, At: at,
		Name: t.intern("ota"), Aux: -1, A: int64(version)}, true)
}

// SwapRollback records an aborted OTA swap: the staged bundle (version) was
// discarded and the device stays on the previous spec. reason names the
// abort cause (transfer, checksum, parse, version, migration).
func (t *Tracer) SwapRollback(reason string, staged uint64, at simclock.Time) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindSwapRollback, At: at,
		Name: t.intern(reason), Aux: -1, A: int64(staged)}, true)
}

// InputStale records a freshness-bound miss: consumer was about to run on
// producer data older than its bound (ageUS, in µs; -1 means the input was
// never collected, e.g. first dispatch after a reboot wiped the schedule).
// Persisted, so a post-reboot flight dump shows which inputs went stale
// across the outage.
func (t *Tracer) InputStale(producer, consumer string, ageUS int64, at simclock.Time) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindInputStale, At: at,
		Name: t.intern(producer), Aux: t.intern(consumer), A: ageUS}, true)
}

// ReCollect records the enforcement action paired with an InputStale: the
// producer was re-executed and its fresh sample committed before consumer
// ran. Persisted.
func (t *Tracer) ReCollect(producer, consumer string, at simclock.Time) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindReCollect, At: at,
		Name: t.intern(producer), Aux: t.intern(consumer)}, true)
}

// CommitFlip counts one commit-group selector flip — the NVM atomic commit
// point. Wired as the runtime commit group's observer; a volatile counter
// only, so it is safe at any call rate.
func (t *Tracer) CommitFlip() {
	if t == nil {
		return
	}
	t.commitFlips++
}

// CommitFlips returns the number of observed commit-group selector flips.
func (t *Tracer) CommitFlips() uint64 {
	if t == nil {
		return 0
	}
	return t.commitFlips
}

// State is the tracer's host-side position: the lengths of its event log,
// its pending flight batch and its name table, and its counters. The log,
// the batch and the table only grow or empty, so a position in a run's
// tracer names their contents at that instant (see Restore).
type State struct {
	Events, Pending, Names int
	Seq, CommitFlips       uint64
}

// State returns the tracer's current position (the zero State for a nil
// tracer).
func (t *Tracer) State() State {
	if t == nil {
		return State{}
	}
	return State{Events: len(t.events), Pending: len(t.pending), Names: len(t.names),
		Seq: t.seq, CommitFlips: t.commitFlips}
}

// Restore puts t at position s of the tracer from, which recorded a run of
// the same deployment at least as far: t's event log, pending flight batch
// and name table become from's at s. The pending batch is always the tail
// of the log (emit appends to both; flushes and power failures empty it),
// so s's lengths determine all three. The flight ring itself is in FRAM.
func (t *Tracer) Restore(from *Tracer, s State) {
	if t == nil {
		return
	}
	t.events = append(t.events[:0], from.events[:s.Events]...)
	t.pending = append(t.pending[:0], from.events[s.Events-s.Pending:s.Events]...)
	t.names = append(t.names[:0], from.names[:s.Names]...)
	clear(t.nameIdx)
	for i, n := range t.names {
		t.nameIdx[n] = int32(i)
	}
	t.seq, t.commitFlips = s.Seq, s.CommitFlips
}

// Events returns a copy of the volatile event log.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// EventCount returns the number of events emitted so far.
func (t *Tracer) EventCount() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }
