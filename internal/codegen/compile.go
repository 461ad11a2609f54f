// Closure compilation: the simulator's hot-path execution engine.
//
// Generate (codegen.go) emits Go source ahead of time; that path needs a Go
// compiler and so cannot serve specs compiled at deployment time or swapped
// over the air. Compile instead lowers a checked ir.Program to closure trees
// at runtime: identifiers are resolved to integer variable slots and event
// fields once, at compile time, and every expression and statement becomes a
// typed Go closure. Stepping a compiled machine performs no map lookups, no
// scope construction, and no allocation — the wins the interpreter's
// per-event MapScope cannot have.
//
// Semantics are the interpreter's by construction: operator evaluation,
// truthiness, assignment coercion, and short-circuiting all route through
// the same ir.Apply / ir.ApplyUnary / ir.Coerce helpers ir.Step uses, and
// transition selection mirrors ir.Step exactly (first matching transition
// wins, implicit self-transition otherwise). The differential harness
// (compile_test.go and the repo-root equivalence tests) holds the two
// engines byte-identical over every example specification.

package codegen

import (
	"errors"
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
	guard   frameFn // nil means always
	// bguard, when non-nil, is the unboxed compilation of the same guard
	// expression (see unboxed.go) and is preferred by Step; guard is kept
	// as the always-present boxed form.
	bguard boolFn
	target int
	body   []stmtFn
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
		if !tr.trigger.Matches(kind) {
			continue
		}
		if tr.bguard != nil {
			if !tr.bguard(fr) {
				continue
			}
		} else if tr.guard != nil {
			v := tr.guard(fr)
			ok := false
			if fr.err == nil {
				if v.T == ir.TBool {
					// Inline Truthy's happy path: every compiled guard
					// yields a boolean, so the error plumbing is dead
					// weight per evaluation.
					ok = v.B
				} else {
					ok, fr.err = v.Truthy()
				}
			}
			if fr.err != nil {
				return nil, fmt.Errorf("ir: machine %s state %s: guard: %w", cm.name, st.name, fr.err)
			}
			if !ok {
				continue
			}
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
	cc := &compiler{m: m, slots: make(map[string]int, len(m.Vars)), types: make(map[string]ir.Type, len(m.Vars))}
	for i, v := range m.Vars {
		if v.Type == ir.TString {
			return nil, fmt.Errorf("codegen: machine %s: string variable %q cannot persist", m.Name, v.Name)
		}
		cc.slots[v.Name] = i
		cc.types[v.Name] = v.Type
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
				g, err := cc.expr(tr.Guard)
				if err != nil {
					return nil, err
				}
				ct.guard = g
				ct.bguard = cc.boolExpr(tr.Guard)
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
	slots map[string]int
	types map[string]ir.Type
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
		x, err := cc.expr(s.X)
		if err != nil {
			return nil, err
		}
		slot, ok := cc.slots[s.Name]
		if !ok {
			return nil, fmt.Errorf("codegen: machine %s: assignment to undeclared %q", cc.m.Name, s.Name)
		}
		typ := cc.types[s.Name]
		name := s.Name
		// Unboxed fast path: when the expression's static type matches the
		// variable's, Coerce is the identity and Encode is a direct bit
		// projection, so the whole statement collapses to one slot store.
		// (An int expression assigned to a float variable widens through
		// floatExpr, matching Coerce's numeric rule.)
		switch typ {
		case ir.TInt:
			if ix := cc.intExpr(s.X); ix != nil {
				return func(fr *Frame) { fr.slots.SetVarWord(slot, uint64(ix(fr))) }, nil
			}
		case ir.TFloat:
			if fx := cc.floatExpr(s.X); fx != nil {
				return func(fr *Frame) { fr.slots.SetVarWord(slot, math.Float64bits(fx(fr))) }, nil
			}
		case ir.TBool:
			if bx := cc.boolExpr(s.X); bx != nil {
				return func(fr *Frame) {
					var w uint64
					if bx(fr) {
						w = 1
					}
					fr.slots.SetVarWord(slot, w)
				}, nil
			}
		}
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
			bits, err := v.Encode()
			if err != nil {
				fr.err = err
				return
			}
			fr.slots.SetVarWord(slot, bits)
		}, nil
	case ir.If:
		cond, err := cc.expr(s.Cond)
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
		if bc := cc.boolExpr(s.Cond); bc != nil {
			return func(fr *Frame) {
				branch := then
				if !bc(fr) {
					branch = els
				}
				for _, fn := range branch {
					fn(fr)
					if fr.err != nil {
						return
					}
				}
			}, nil
		}
		return func(fr *Frame) {
			c := cond(fr)
			if fr.err != nil {
				return
			}
			ok, err := c.Truthy()
			if err != nil {
				fr.err = err
				return
			}
			branch := then
			if !ok {
				branch = els
			}
			for _, fn := range branch {
				fn(fr)
				if fr.err != nil {
					return
				}
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
	switch cc.types[name] {
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
	switch e.Op {
	// Short-circuit logic mirrors evalBinary: the left operand's
	// truthiness decides whether the right is evaluated at all.
	case "&&":
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
			if !lb {
				return ir.Bool(false)
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
	case "||":
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
			if lb {
				return ir.Bool(true)
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
	// Type-directed specialization: when both operand types are statically
	// known, emit a closure with the operator resolved at compile time
	// instead of dispatching through ir.Apply's string-keyed switch on every
	// evaluation. The specialized closures replicate ir.Apply's semantics
	// case-for-case (Equal's same-type and numeric-widening rules, compare's
	// float widening, arith's int/int preservation and zero checks) and the
	// differential tests in compile_test.go hold them to it. Any shape not
	// covered falls through to the generic Apply closure below, so the two
	// paths can never disagree on unusual operand combinations.
	if fn := cc.specializeBinary(e, l, r); fn != nil {
		return fn, nil
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

// Errors raised by specialized arithmetic closures. The texts match
// ir.Apply's exactly so engine choice never changes an error message.
var (
	errDivZero = errors.New("ir: division by zero")
	errModZero = errors.New("ir: modulo by zero")
)

// staticType infers the type an expression will have IF it evaluates
// without error. The inference is sound, not complete: a (t, true) answer
// guarantees every successful evaluation yields that type, while (0, false)
// just means "unknown here" and disables specialization for that operand.
func (cc *compiler) staticType(e ir.Expr) (ir.Type, bool) {
	switch e := e.(type) {
	case ir.Lit:
		return e.V.T, true
	case ir.Ident:
		switch e.Name {
		case "task":
			return ir.TString, true
		case "t", "path":
			return ir.TInt, true
		case "data", "energy":
			return ir.TFloat, true
		}
		if t, ok := cc.types[e.Name]; ok {
			return t, true
		}
	case ir.Unary:
		switch e.Op {
		case "!":
			return ir.TBool, true
		case "-":
			if t, ok := cc.staticType(e.X); ok && (t == ir.TInt || t == ir.TFloat) {
				return t, true
			}
		}
	case ir.Binary:
		switch e.Op {
		case "&&", "||", "==", "!=", "<", "<=", ">", ">=":
			return ir.TBool, true
		case "%":
			return ir.TInt, true
		case "+", "-", "*", "/":
			lt, lok := cc.staticType(e.L)
			rt, rok := cc.staticType(e.R)
			if !lok || !rok || !numericType(lt) || !numericType(rt) {
				return 0, false
			}
			if lt == ir.TInt && rt == ir.TInt {
				return ir.TInt, true
			}
			return ir.TFloat, true
		}
	}
	return 0, false
}

func numericType(t ir.Type) bool { return t == ir.TInt || t == ir.TFloat }

// floatOf returns the AsFloat projection for a statically numeric type.
func floatOf(t ir.Type) func(ir.Value) float64 {
	if t == ir.TInt {
		return func(v ir.Value) float64 { return float64(v.I) }
	}
	return func(v ir.Value) float64 { return v.F }
}

// specializeBinary returns an operator-resolved closure for e when the
// operand types are statically known and the combination cannot produce a
// type error at runtime, or nil to use the generic ir.Apply path.
func (cc *compiler) specializeBinary(e ir.Binary, l, r frameFn) frameFn {
	lt, lok := cc.staticType(e.L)
	rt, rok := cc.staticType(e.R)
	if !lok || !rok {
		return nil
	}

	// Fused fast path for the single hottest guard shape in every spec:
	// task compared against a string literal. One closure, no sub-closure
	// calls, no Value boxing of the event field.
	if e.Op == "==" || e.Op == "!=" {
		if fn := fuseTaskEq(e); fn != nil {
			return fn
		}
	}

	switch e.Op {
	case "==", "!=":
		neg := e.Op == "!="
		var eq func(lv, rv ir.Value) bool
		switch {
		case lt == rt && lt == ir.TString:
			eq = func(lv, rv ir.Value) bool { return lv.S == rv.S }
		case lt == rt && lt == ir.TBool:
			eq = func(lv, rv ir.Value) bool { return lv.B == rv.B }
		case lt == ir.TInt && rt == ir.TInt:
			eq = func(lv, rv ir.Value) bool { return lv.I == rv.I }
		case lt == ir.TFloat && rt == ir.TFloat:
			eq = func(lv, rv ir.Value) bool { return lv.F == rv.F }
		case numericType(lt) && numericType(rt):
			lf, rf := floatOf(lt), floatOf(rt)
			eq = func(lv, rv ir.Value) bool { return lf(lv) == rf(rv) }
		default:
			// String-vs-number etc. errors at runtime; keep Apply's message.
			return nil
		}
		return func(fr *Frame) ir.Value {
			lv := l(fr)
			if fr.err != nil {
				return ir.Value{}
			}
			rv := r(fr)
			if fr.err != nil {
				return ir.Value{}
			}
			return ir.Bool(eq(lv, rv) != neg)
		}

	case "<", "<=", ">", ">=":
		if !numericType(lt) || !numericType(rt) {
			return nil
		}
		// compare() widens both sides to float even for int/int.
		lf, rf := floatOf(lt), floatOf(rt)
		var cmp func(a, b float64) bool
		switch e.Op {
		case "<":
			cmp = func(a, b float64) bool { return a < b }
		case "<=":
			cmp = func(a, b float64) bool { return a <= b }
		case ">":
			cmp = func(a, b float64) bool { return a > b }
		case ">=":
			cmp = func(a, b float64) bool { return a >= b }
		}
		return func(fr *Frame) ir.Value {
			lv := l(fr)
			if fr.err != nil {
				return ir.Value{}
			}
			rv := r(fr)
			if fr.err != nil {
				return ir.Value{}
			}
			return ir.Bool(cmp(lf(lv), rf(rv)))
		}

	case "+", "-", "*", "/", "%":
		if !numericType(lt) || !numericType(rt) {
			return nil
		}
		if lt == ir.TInt && rt == ir.TInt {
			switch e.Op {
			case "+":
				return intArith(l, r, func(a, b int64) int64 { return a + b })
			case "-":
				return intArith(l, r, func(a, b int64) int64 { return a - b })
			case "*":
				return intArith(l, r, func(a, b int64) int64 { return a * b })
			case "/":
				return intDivMod(l, r, false)
			case "%":
				return intDivMod(l, r, true)
			}
		}
		if e.Op == "%" {
			return nil // mixed/float %: runtime error, keep Apply's message
		}
		lf, rf := floatOf(lt), floatOf(rt)
		var op func(a, b float64) float64
		switch e.Op {
		case "+":
			op = func(a, b float64) float64 { return a + b }
		case "-":
			op = func(a, b float64) float64 { return a - b }
		case "*":
			op = func(a, b float64) float64 { return a * b }
		case "/":
			return func(fr *Frame) ir.Value {
				lv := l(fr)
				if fr.err != nil {
					return ir.Value{}
				}
				rv := r(fr)
				if fr.err != nil {
					return ir.Value{}
				}
				b := rf(rv)
				if b == 0 {
					fr.err = errDivZero
					return ir.Value{}
				}
				return ir.Float(lf(lv) / b)
			}
		}
		return func(fr *Frame) ir.Value {
			lv := l(fr)
			if fr.err != nil {
				return ir.Value{}
			}
			rv := r(fr)
			if fr.err != nil {
				return ir.Value{}
			}
			return ir.Float(op(lf(lv), rf(rv)))
		}
	}
	return nil
}

func intArith(l, r frameFn, op func(a, b int64) int64) frameFn {
	return func(fr *Frame) ir.Value {
		lv := l(fr)
		if fr.err != nil {
			return ir.Value{}
		}
		rv := r(fr)
		if fr.err != nil {
			return ir.Value{}
		}
		return ir.Int(op(lv.I, rv.I))
	}
}

func intDivMod(l, r frameFn, mod bool) frameFn {
	return func(fr *Frame) ir.Value {
		lv := l(fr)
		if fr.err != nil {
			return ir.Value{}
		}
		rv := r(fr)
		if fr.err != nil {
			return ir.Value{}
		}
		if rv.I == 0 {
			if mod {
				fr.err = errModZero
			} else {
				fr.err = errDivZero
			}
			return ir.Value{}
		}
		if mod {
			return ir.Int(lv.I % rv.I)
		}
		return ir.Int(lv.I / rv.I)
	}
}

// fuseTaskEq recognizes `task == "lit"` / `task != "lit"` (either operand
// order) and emits a single closure over the event field.
func fuseTaskEq(e ir.Binary) frameFn {
	var lit string
	switch {
	case isTaskIdent(e.L):
		s, ok := stringLit(e.R)
		if !ok {
			return nil
		}
		lit = s
	case isTaskIdent(e.R):
		s, ok := stringLit(e.L)
		if !ok {
			return nil
		}
		lit = s
	default:
		return nil
	}
	if e.Op == "!=" {
		return func(fr *Frame) ir.Value { return ir.Bool(fr.ev.Task != lit) }
	}
	return func(fr *Frame) ir.Value { return ir.Bool(fr.ev.Task == lit) }
}

func isTaskIdent(e ir.Expr) bool {
	id, ok := e.(ir.Ident)
	return ok && id.Name == "task"
}

func stringLit(e ir.Expr) (string, bool) {
	lit, ok := e.(ir.Lit)
	if !ok || lit.V.T != ir.TString {
		return "", false
	}
	return lit.V.S, true
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
