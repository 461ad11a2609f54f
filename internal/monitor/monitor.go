package monitor

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/action"
	"github.com/tinysystems/artemis-go/internal/codegen"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/telemetry"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// Owner is the NVM accounting label for monitor state; Table 2 reports its
// footprint separately from the runtime's.
const Owner = "monitor"

// Event is an observable runtime event plus the persistent sequence number
// the runtime assigns to it. The sequence number makes event delivery
// idempotent: re-delivering the same event after a reboot is safe.
type Event struct {
	ir.Event
	Seq uint64
}

func actionFromWord(w uint64) action.Action { return action.Action(int64(w)) }

// Monitor is one power-failure-resilient machine instance.
type Monitor struct {
	machine *ir.Machine
	env     persistentEnv
	binding transform.Binding
	tel     *telemetry.Tracer
	// compiled steps the machine; frame is its reusable scratch, shared by
	// the whole set. compiled is nil only after Set.Interpret, which routes
	// the machine through the IR interpreter instead — both engines stage
	// identical bytes into the committed region.
	compiled *codegen.Machine
	frame    *codegen.Frame
}

// Machine returns the monitor's state machine definition.
func (m *Monitor) Machine() *ir.Machine { return m.machine }

// Binding returns the property binding the monitor checks.
func (m *Monitor) Binding() transform.Binding { return m.binding }

// deliver processes one event exactly once. If the event was already
// processed before a power failure interrupted the set, the committed
// verdict is returned without re-stepping the machine. task is the event's
// task resolved by the set's program (codegen.Program.TaskID).
func (m *Monitor) deliver(ev *Event, task codegen.TaskID) ([]ir.Failure, error) {
	if ev.Seq == 0 {
		return nil, fmt.Errorf("monitor: event sequence numbers start at 1")
	}
	if m.env.lastSeq() == ev.Seq {
		return m.env.storedVerdicts(), nil
	}
	// The pre-step state selects the candidate transitions, and the trace
	// reports a move from it; replayed deliveries return above, so a
	// transition is emitted exactly once per step.
	before := m.env.StateIdx()
	var fs []ir.Failure
	var err error
	switch {
	case m.compiled == nil:
		fs, err = ir.Step(m.machine, &m.env, ev.Event)
	case m.compiled.Candidate(before, ev.Kind, task):
		// The frame is shared by the whole set; tagging the staged event
		// with its sequence number makes the copy happen once per event,
		// not once per monitor.
		m.frame.StageEvent(&ev.Event, ev.Seq, task)
		fs, err = m.compiled.StepStaged(m.frame, &m.env)
	}
	// Otherwise no transition of the current state can fire on the event,
	// and the step is skipped. The quiet step it would have been stages no
	// word, so the verdicts, sequence number and commit below write the
	// same image for the same charge either way.
	if err != nil {
		return nil, err
	}
	if err := m.env.storeVerdicts(fs); err != nil {
		return nil, err
	}
	m.env.setLastSeq(ev.Seq)
	m.env.Commit()
	if m.tel != nil {
		if after := m.env.State(); after != before {
			m.tel.MonitorTransition(m.machine.Name, m.stateName(before), m.stateName(after), ev.Time)
		}
		for _, f := range fs {
			m.tel.PropertyFail(f.Machine, f.Action.String(), f.Path, ev.Time)
		}
	}
	return fs, nil
}

// Commit exposes the env's atomic commit to Deliver.
func (e *persistentEnv) Commit() { e.c.Commit() }

// Reset returns the monitor to its initial configuration, clearing replay
// bookkeeping (first-boot hard reset).
func (m *Monitor) Reset() { m.env.reset(true) }

// Reinit returns the machine to its initial state and variables but keeps
// the event-replay bookkeeping; used when a path restarts (§3.3).
func (m *Monitor) Reinit() { m.env.reset(false) }

// Rollback discards uncommitted staging after a reboot.
func (m *Monitor) Rollback() { m.env.rollback() }

// Backing exposes the monitor's committed region so an integrity guard can
// wrap it; Reset is the matching recovery callback (the initial state is
// safe by construction — the FSM re-arms on the next startTask).
func (m *Monitor) Backing() *nvm.Committed { return m.env.c }

// State returns the current state name, for inspection and tests.
func (m *Monitor) State() string { return m.stateName(m.env.State()) }

func (m *Monitor) stateName(i int) string {
	if i < 0 || i >= len(m.machine.States) {
		return fmt.Sprintf("invalid(%d)", i)
	}
	return m.machine.States[i].Name
}

// VarValue reads a machine variable, for inspection and tests.
func (m *Monitor) VarValue(name string) (ir.Value, bool) { return m.env.GetVar(name) }

// Set is the complete monitor deployment of one application: every machine
// generated from the property specification, each with persistent state.
type Set struct {
	monitors []*Monitor
	// prog steps the monitors; Deliver resolves each event's task against
	// its task table once, for every monitor.
	prog *codegen.Program
	// frame is the scratch frame every monitor steps in.
	frame *codegen.Frame
	// scratch backs the slice Deliver returns; see Deliver's contract.
	scratch []ir.Failure
}

// NewSet allocates persistent state for every machine of a compiled
// specification and steps them through the closure-compiled engine
// (res.Stepper). It fails if a machine does not compile, which a program
// that passed ir.Program.Check never does. Call Reset once on the very first
// boot (the paper's resetMonitor hard reset); on later boots call Rollback
// then re-deliver the in-flight event (monitorFinalize).
func NewSet(mem *nvm.Memory, res *transform.Result) (*Set, error) {
	if len(res.Program.Machines) != len(res.Bindings) {
		return nil, fmt.Errorf("monitor: %d machines but %d bindings", len(res.Program.Machines), len(res.Bindings))
	}
	prog, err := res.Stepper()
	if err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	// One frame serves the whole set: monitors within a set step strictly
	// sequentially (Deliver iterates them in order), and a step fully resets
	// the frame's scratch before using it.
	frame := codegen.NewFrame()
	// One backing array holds every Monitor of the set; the pointer slice
	// preserves stable *Monitor identities for inspectors and swaps.
	backing := make([]Monitor, len(res.Program.Machines))
	s := &Set{monitors: make([]*Monitor, 0, len(backing)), prog: prog, frame: frame}
	for i, m := range res.Program.Machines {
		mon := &backing[i]
		if err := mon.env.init(mem, Owner, m); err != nil {
			return nil, err
		}
		mon.machine = m
		mon.binding = res.Bindings[i]
		mon.compiled = prog.Machine(i)
		mon.frame = frame
		s.monitors = append(s.monitors, mon)
	}
	return s, nil
}

// Monitors returns the set's monitors.
func (s *Set) Monitors() []*Monitor { return s.monitors }

// Interpret switches every monitor of the set to the IR interpreter
// (ir.Step), the reference engine the differential tests hold the compiled
// engine to. Verdicts, FSM trajectory and staged NVM bytes are identical
// either way; only dispatch cost changes. Deployments never call it.
func (s *Set) Interpret() {
	for _, m := range s.monitors {
		m.compiled = nil
	}
}

// Engine reports which execution engine steps this monitor: "compiled" or,
// after Set.Interpret, "interpreter".
func (m *Monitor) Engine() string {
	if m.compiled != nil {
		return "compiled"
	}
	return "interpreter"
}

// SetTracer attaches a telemetry tracer to every monitor in the set, which
// then emits MonitorTransition and PropertyFail events from Deliver. All
// deployment styles (local and remote) funnel through the same
// Monitor instances, so this covers them uniformly. A nil tracer disables
// emission.
func (s *Set) SetTracer(t *telemetry.Tracer) {
	for _, m := range s.monitors {
		m.tel = t
	}
}

// Monitor returns the monitor for the named machine, or nil.
func (s *Set) Monitor(name string) *Monitor {
	for _, m := range s.monitors {
		if m.machine.Name == name {
			return m
		}
	}
	return nil
}

// Reset hard-resets every monitor (first-boot initialisation).
func (s *Set) Reset() {
	for _, m := range s.monitors {
		m.Reset()
	}
}

// Rollback discards uncommitted staging in every monitor, and the event
// the set's frame holds; the runtime calls it on every boot before its
// first delivery. The frame is SRAM: a deployment re-armed for its next
// user would otherwise step a machine on the previous user's event
// wherever the two users' sequence numbers coincide. The clear is free.
func (s *Set) Rollback() {
	s.frame.Unstage()
	for _, m := range s.monitors {
		m.Rollback()
	}
}

// Deliver sends one event to every monitor and returns all signalled
// failures. It is idempotent per event sequence number, so re-delivery
// after a power failure finalises interrupted processing without
// double-stepping any machine. A monitor whose current state has no
// transition that can fire on the event skips its FSM step
// (codegen.Machine.Candidate) but stages and commits the same words.
//
// The returned slice aliases the set's reusable scratch and is valid only
// until the next Deliver on this set — the same contract as
// codegen.Machine.Step. Callers that need the failures past that point
// must copy them.
func (s *Set) Deliver(ev Event) ([]ir.Failure, error) {
	task := s.prog.TaskID(ev.Task)
	all := s.scratch[:0]
	for _, m := range s.monitors {
		fs, err := m.deliver(&ev, task)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	s.scratch = all
	return all, nil
}

// resetOnPathRestart reports whether a property kind's monitor must be
// re-initialised when its path restarts (§3.3: "monitors linked to already
// initiated tasks within that path must be re-initialized").
//
// Kinds tracking an in-flight execution (maxTries attempt counts,
// maxDuration start times, dpData) reset; kinds embodying cross-restart
// obligations do not: collect accumulates samples across the restarts that
// gather them (§5.1 Path #1), and MITD counts its maxAttempt across the very
// path restarts it causes (Figure 13).
func resetOnPathRestart(k spec.Kind) bool {
	switch k {
	case spec.KindCollect, spec.KindMITD:
		return false
	}
	return true
}

// ResetPath re-initialises the monitors bound to the given path, applying
// the per-kind policy above. Unscoped monitors (binding path 0, merged
// tasks) re-initialise whenever any of their task's paths restarts: their
// in-flight tracking refers to the execution that the restart abandons. The
// runtime calls this when it restarts or skips a path.
func (s *Set) ResetPath(id int) {
	for _, m := range s.monitors {
		if !resetOnPathRestart(m.binding.Kind) {
			continue
		}
		if m.binding.Path == id || (m.binding.Path == 0 && containsInt(m.binding.AllPaths, id)) {
			m.Reinit()
		}
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Decision is the runtime action arbitrated from a set of failures.
type Decision struct {
	Action  action.Action
	Path    int    // the path the action applies to (0 = current)
	Machine string // the machine whose failure won arbitration
}

// Decide resolves concurrent failures into the single action the runtime
// executes: the most severe action wins; among equals, the first signalled.
// Failures scoped to a path other than the current one are ignored — their
// obligation belongs to a different traversal.
func Decide(fs []ir.Failure, currentPath int) Decision {
	var d Decision
	for _, f := range fs {
		if f.Path != 0 && f.Path != currentPath {
			continue
		}
		if f.Action > d.Action {
			d = Decision{Action: f.Action, Path: f.Path, Machine: f.Machine}
		}
	}
	if d.Path == 0 {
		d.Path = currentPath
	}
	return d
}
