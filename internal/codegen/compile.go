// Closure compilation: the simulator's hot-path execution engine.
//
// Generate (codegen.go) emits Go source ahead of time; that path needs a Go
// compiler and so cannot serve specs compiled at deployment time or swapped
// over the air. Compile instead lowers a checked ir.Program to closure trees
// at runtime: identifiers are resolved to integer variable slots and event
// fields once, at compile time, and every guard, if-condition and
// assignment is compiled once, into one Go closure. Stepping a compiled
// machine performs no map lookups, no scope construction, and no
// allocation — the wins the interpreter's per-event MapScope cannot have.
//
// A site compiles to one of two forms. Typed closures (unboxed.go) are the
// primary form: every site whose type the typed compilers can prove, which
// is every site the spec transform emits. The generic closures below are
// the fallback for everything else, including every shape that can fail at
// run time (zero divisors, % on a float, non-boolean guards, lossy
// stores). They evaluate through the same ir.Apply / ir.ApplyUnary /
// ir.Coerce helpers ir.Step uses, so their results and error texts are the
// interpreter's by construction. Transition selection mirrors ir.Step
// exactly (first matching transition wins, implicit self-transition
// otherwise). The differential harness (compile_test.go and the repo-root
// equivalence tests) holds the two engines byte-identical over every
// example specification.

package codegen

import (
	"fmt"
	"math"

	"github.com/tinysystems/artemis-go/internal/ir"
)

// Slots is the mutable machine configuration a compiled machine steps over:
// the state index plus one raw encoded word per declared variable, in
// declaration order, encoded exactly as ir.Value.Encode does. The monitor
// package implements it over its committed NVM region; VolatileSlots is the
// in-memory implementation for tests and differential harnesses.
type Slots interface {
	StateIdx() int
	SetStateIdx(i int)
	VarWord(i int) uint64
	SetVarWord(i int, w uint64)
}

// Frame is the per-instance scratch a compiled machine steps through. It
// exists so that steady-state dispatch allocates nothing: the failure
// buffer, the event copy, and the error slot live here and are reused on
// every Step. A Frame must not be shared between concurrently stepping
// machine instances; the compiled machines themselves are immutable and
// freely shared.
type Frame struct {
	slots Slots
	ev    ir.Event
	// evSeq tags the staged event (see StageEvent); 0 means untagged.
	evSeq uint64
	fails []ir.Failure
	err   error
}

// NewFrame returns an empty scratch frame.
func NewFrame() *Frame { return &Frame{} }

// StageEvent loads *ev into the frame's event slot for StepStaged, unless
// the frame already holds the event tagged with this (non-zero) sequence
// number. Monitors sharing one frame pay the event copy — a struct with a
// string field, so a write-barriered store — once per event instead of once
// per machine. ev is taken by pointer so the no-op case costs a compare,
// not a 64-byte argument copy; the pointer itself is never retained.
func (fr *Frame) StageEvent(ev *ir.Event, seq uint64) {
	if fr.evSeq != seq || seq == 0 {
		fr.ev, fr.evSeq = *ev, seq
	}
}

// frameFn evaluates one compiled expression; on a runtime error it sets
// fr.err and returns the zero Value.
type frameFn func(fr *Frame) ir.Value

// stmtFn executes one compiled statement; errors go to fr.err.
type stmtFn func(fr *Frame)

// Machine is one closure-compiled state machine. It is immutable after
// Compile and safe for concurrent use with distinct Frames.
type Machine struct {
	name   string
	states []cstate
}

type cstate struct {
	name  string
	trans []ctrans
}

type ctrans struct {
	trigger ir.Trigger
	guard   boolFn // nil means always
	target  int
	body    []stmtFn
}

// Name returns the machine name.
func (cm *Machine) Name() string { return cm.name }

// Step delivers one event, mirroring ir.Step: the first transition of the
// current state whose trigger matches and whose guard holds fires; its body
// runs and the machine moves to the target state. With no matching
// transition the event is accepted silently. The returned slice aliases the
// frame's scratch buffer and is valid until the next Step on that frame.
func (cm *Machine) Step(fr *Frame, sl Slots, ev ir.Event) ([]ir.Failure, error) {
	fr.ev, fr.evSeq = ev, 0
	return cm.StepStaged(fr, sl)
}

// StepStaged is Step for an event already loaded with StageEvent. Splitting
// the event staging from the dispatch lets a set of monitors sharing one
// frame copy the event in once, then step every machine against it.
func (cm *Machine) StepStaged(fr *Frame, sl Slots) ([]ir.Failure, error) {
	si := sl.StateIdx()
	if si < 0 || si >= len(cm.states) {
		return nil, fmt.Errorf("ir: machine %s in invalid state %d", cm.name, si)
	}
	// Reset the scratch lazily: after a quiet step (no failures, no error)
	// both fields are already clean, and skipping the stores also skips
	// their write barriers on this innermost loop.
	fr.slots = sl
	if len(fr.fails) != 0 {
		fr.fails = fr.fails[:0]
	}
	if fr.err != nil {
		fr.err = nil
	}
	st := &cm.states[si]
	kind := fr.ev.Kind
	for i := range st.trans {
		tr := &st.trans[i]
		if !tr.trigger.Matches(kind) || tr.guard != nil && !tr.guard(fr) {
			continue
		}
		// A generic guard that fails holds with fr.err set (see cond), so
		// typed guards pay no error check per evaluation.
		if fr.err != nil {
			return nil, fmt.Errorf("ir: machine %s state %s: guard: %w", cm.name, st.name, fr.err)
		}
		for _, s := range tr.body {
			s(fr)
			if fr.err != nil {
				return nil, fmt.Errorf("ir: machine %s state %s: %w", cm.name, st.name, fr.err)
			}
		}
		sl.SetStateIdx(tr.target)
		return fr.fails, nil
	}
	return nil, nil
}

// Program is a compiled ir.Program: one compiled machine per source
// machine, in source order.
type Program struct {
	machines []*Machine
}

// Machine returns the compiled machine at source index i.
func (p *Program) Machine(i int) *Machine { return p.machines[i] }

// CompileProgram closure-compiles every machine of a program. It fails on
// the first machine CompileMachine rejects; a checked program always
// compiles.
func CompileProgram(p *ir.Program) (*Program, error) {
	out := &Program{machines: make([]*Machine, len(p.Machines))}
	for i, m := range p.Machines {
		cm, err := CompileMachine(m)
		if err != nil {
			return nil, err
		}
		out.machines[i] = cm
	}
	return out, nil
}

// CompileMachine closure-compiles one machine. It fails on constructs whose
// compiled form could diverge from the interpreter — undeclared or
// string-typed variables, unknown statement or expression nodes,
// unresolvable transition targets — exactly the set ir.Machine.Check
// rejects; checked machines always compile.
func CompileMachine(m *ir.Machine) (*Machine, error) {
	cc := &compiler{m: m, slots: make(map[string]int, len(m.Vars))}
	for i, v := range m.Vars {
		if v.Type == ir.TString {
			return nil, fmt.Errorf("codegen: machine %s: string variable %q cannot persist", m.Name, v.Name)
		}
		cc.slots[v.Name] = i
	}
	cm := &Machine{name: m.Name, states: make([]cstate, len(m.States))}
	for si, st := range m.States {
		cs := cstate{name: st.Name, trans: make([]ctrans, len(st.Transitions))}
		for ti := range st.Transitions {
			tr := &st.Transitions[ti]
			target := m.StateIndex(tr.Target)
			if target < 0 {
				return nil, fmt.Errorf("codegen: machine %s: transition to unknown state %q", m.Name, tr.Target)
			}
			ct := ctrans{trigger: tr.Trigger, target: target}
			if tr.Guard != nil {
				g, err := cc.cond(tr.Guard)
				if err != nil {
					return nil, err
				}
				ct.guard = g
			}
			body, err := cc.stmts(tr.Body)
			if err != nil {
				return nil, err
			}
			ct.body = body
			cs.trans[ti] = ct
		}
		cm.states[si] = cs
	}
	return cm, nil
}

// compiler carries the per-machine symbol table through recursion.
type compiler struct {
	m     *ir.Machine
	slots map[string]int // variable name -> index into m.Vars
}

func (cc *compiler) stmts(in []ir.Stmt) ([]stmtFn, error) {
	out := make([]stmtFn, 0, len(in))
	for _, s := range in {
		fn, err := cc.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

func (cc *compiler) stmt(s ir.Stmt) (stmtFn, error) {
	switch s := s.(type) {
	case ir.Assign:
		slot, ok := cc.slots[s.Name]
		if !ok {
			return nil, fmt.Errorf("codegen: machine %s: assignment to undeclared %q", cc.m.Name, s.Name)
		}
		typ := cc.m.Vars[slot].Type
		if fn := cc.store(slot, typ, s.X); fn != nil {
			return fn, nil
		}
		x, err := cc.expr(s.X)
		if err != nil {
			return nil, err
		}
		name := s.Name
		return func(fr *Frame) {
			v := x(fr)
			if fr.err != nil {
				return
			}
			v, err := ir.Coerce(v, typ)
			if err != nil {
				fr.err = fmt.Errorf("assigning %q: %w", name, err)
				return
			}
			// v is an int, float or bool now, which Encode cannot refuse.
			bits, _ := v.Encode()
			fr.slots.SetVarWord(slot, bits)
		}, nil
	case ir.If:
		cond, err := cc.cond(s.Cond)
		if err != nil {
			return nil, err
		}
		then, err := cc.stmts(s.Then)
		if err != nil {
			return nil, err
		}
		els, err := cc.stmts(s.Else)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) {
			branch := then
			if !cond(fr) {
				branch = els
			}
			// Checking before each statement also stops a branch that a
			// failed generic condition selected (see cond).
			for _, fn := range branch {
				if fr.err != nil {
					return
				}
				fn(fr)
			}
		}, nil
	case ir.Fail:
		f := ir.Failure{Machine: cc.m.Name, Action: s.Action, Path: s.Path}
		return func(fr *Frame) {
			fr.fails = append(fr.fails, f)
		}, nil
	default:
		return nil, fmt.Errorf("codegen: machine %s: unknown statement %T", cc.m.Name, s)
	}
}

// cond compiles a guard or an if-condition: to a typed closure when
// boolExpr proves one, else to a generic closure. A generic condition that
// fails sets fr.err and holds; callers check fr.err before they run what
// it selects.
func (cc *compiler) cond(e ir.Expr) (boolFn, error) {
	if b := cc.boolExpr(e); b != nil {
		return b, nil
	}
	x, err := cc.expr(e)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) bool {
		v := x(fr)
		if fr.err != nil {
			return true
		}
		ok, err := v.Truthy()
		if err != nil {
			fr.err = err
			return true
		}
		return ok
	}, nil
}

// expr compiles e to a generic closure over boxed ir.Values.
func (cc *compiler) expr(e ir.Expr) (frameFn, error) {
	switch e := e.(type) {
	case ir.Lit:
		v := e.V
		return func(*Frame) ir.Value { return v }, nil
	case ir.Ident:
		return cc.ident(e.Name)
	case ir.Unary:
		x, err := cc.expr(e.X)
		if err != nil {
			return nil, err
		}
		op := e.Op
		return func(fr *Frame) ir.Value {
			v := x(fr)
			if fr.err != nil {
				return ir.Value{}
			}
			out, err := ir.ApplyUnary(op, v)
			if err != nil {
				fr.err = err
				return ir.Value{}
			}
			return out
		}, nil
	case ir.Binary:
		return cc.binary(e)
	default:
		return nil, fmt.Errorf("codegen: machine %s: unknown expression %T", cc.m.Name, e)
	}
}

// ident resolves an identifier at compile time: event fields first (they
// shadow nothing — the checker rejects variables named after them — but the
// interpreter's stepScope consults the event bindings first, so resolution
// order matches), then variable slots.
func (cc *compiler) ident(name string) (frameFn, error) {
	switch name {
	case "task":
		return func(fr *Frame) ir.Value { return ir.Str(fr.ev.Task) }, nil
	case "t":
		return func(fr *Frame) ir.Value { return ir.Int(int64(fr.ev.Time)) }, nil
	case "data":
		return func(fr *Frame) ir.Value { return ir.Float(fr.ev.Data) }, nil
	case "path":
		return func(fr *Frame) ir.Value { return ir.Int(int64(fr.ev.Path)) }, nil
	case "energy":
		return func(fr *Frame) ir.Value { return ir.Float(fr.ev.Energy) }, nil
	}
	slot, ok := cc.slots[name]
	if !ok {
		return nil, fmt.Errorf("codegen: machine %s: undefined identifier %q", cc.m.Name, name)
	}
	// Per-type decode, matching ir.Decode on the declared type.
	switch cc.m.Vars[slot].Type {
	case ir.TInt:
		return func(fr *Frame) ir.Value { return ir.Int(int64(fr.slots.VarWord(slot))) }, nil
	case ir.TFloat:
		return func(fr *Frame) ir.Value { return ir.Float(math.Float64frombits(fr.slots.VarWord(slot))) }, nil
	case ir.TBool:
		return func(fr *Frame) ir.Value { return ir.Bool(fr.slots.VarWord(slot) != 0) }, nil
	}
	return nil, fmt.Errorf("codegen: machine %s: variable %q has unsupported type", cc.m.Name, name)
}

func (cc *compiler) binary(e ir.Binary) (frameFn, error) {
	l, err := cc.expr(e.L)
	if err != nil {
		return nil, err
	}
	r, err := cc.expr(e.R)
	if err != nil {
		return nil, err
	}
	if e.Op == "&&" || e.Op == "||" {
		// Short-circuit logic mirrors evalBinary: a left operand equal to
		// decides (false for &&, true for ||) is the result, and the right
		// operand is not evaluated at all.
		decides := e.Op == "||"
		return func(fr *Frame) ir.Value {
			lv := l(fr)
			if fr.err != nil {
				return ir.Value{}
			}
			lb, err := lv.Truthy()
			if err != nil {
				fr.err = err
				return ir.Value{}
			}
			if lb == decides {
				return ir.Bool(decides)
			}
			rv := r(fr)
			if fr.err != nil {
				return ir.Value{}
			}
			rb, err := rv.Truthy()
			if err != nil {
				fr.err = err
				return ir.Value{}
			}
			return ir.Bool(rb)
		}, nil
	}
	op := e.Op
	return func(fr *Frame) ir.Value {
		lv := l(fr)
		if fr.err != nil {
			return ir.Value{}
		}
		rv := r(fr)
		if fr.err != nil {
			return ir.Value{}
		}
		out, err := ir.Apply(op, lv, rv)
		if err != nil {
			fr.err = err
			return ir.Value{}
		}
		return out
	}, nil
}

// VolatileSlots is an in-memory Slots implementation for tests and
// differential harnesses.
type VolatileSlots struct {
	state int
	words []uint64
}

// NewVolatileSlots returns slots initialised to the machine's initial state
// and variable values.
func NewVolatileSlots(m *ir.Machine) (*VolatileSlots, error) {
	s := &VolatileSlots{words: make([]uint64, len(m.Vars))}
	if err := s.Reset(m); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset returns the slots to the machine's initial configuration.
func (s *VolatileSlots) Reset(m *ir.Machine) error {
	for i, v := range m.Vars {
		bits, err := v.Init.Encode()
		if err != nil {
			return fmt.Errorf("codegen: machine %s variable %q: %w", m.Name, v.Name, err)
		}
		s.words[i] = bits
	}
	s.state = m.StateIndex(m.Initial)
	return nil
}

// StateIdx implements Slots.
func (s *VolatileSlots) StateIdx() int { return s.state }

// SetStateIdx implements Slots.
func (s *VolatileSlots) SetStateIdx(i int) { s.state = i }

// VarWord implements Slots.
func (s *VolatileSlots) VarWord(i int) uint64 { return s.words[i] }

// SetVarWord implements Slots.
func (s *VolatileSlots) SetVarWord(i int, w uint64) { s.words[i] = w }
