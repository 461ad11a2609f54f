package codegen

import (
	"math"

	"github.com/tinysystems/artemis-go/internal/ir"
)

// Typed closures: the primary compiled form of guards, if-conditions and
// assignments. A typed closure computes a bool, int64 or float64 directly,
// with no 48-byte ir.Value between tree nodes and no error channel,
// because its expression cannot fail. Each compiler below returns nil
// unless it can prove its expression's type; a nil anywhere sends the
// whole site to the generic ir.Apply closures of compile.go. Every case
// mirrors ir's semantics: int equality is exact, comparisons widen both
// sides to float64, and int arithmetic stays in int64 and widens once
// where a float is needed. Division and modulo are never typed: their zero
// checks need the error channel.

// boolFn evaluates a boolean expression that cannot fail.
type boolFn func(fr *Frame) bool

// intFn evaluates an integer expression that cannot fail.
type intFn func(fr *Frame) int64

// floatFn evaluates a numeric expression that cannot fail, projected to
// float64 under ir's widening rules.
type floatFn func(fr *Frame) float64

// store compiles the assignment of x to the variable in slot, declared
// with type t, to one typed slot store, or returns nil. Coerce is then the
// identity, or the int-to-float widening floatExpr already performs, and
// Encode is a bit projection.
func (cc *compiler) store(slot int, t ir.Type, x ir.Expr) stmtFn {
	switch t {
	case ir.TInt:
		if ix := cc.intExpr(x); ix != nil {
			return func(fr *Frame) { fr.slots.SetVarWord(slot, uint64(ix(fr))) }
		}
	case ir.TFloat:
		if fx := cc.floatExpr(x); fx != nil {
			return func(fr *Frame) { fr.slots.SetVarWord(slot, math.Float64bits(fx(fr))) }
		}
	case ir.TBool:
		if bx := cc.boolExpr(x); bx != nil {
			return func(fr *Frame) {
				var w uint64
				if bx(fr) {
					w = 1
				}
				fr.slots.SetVarWord(slot, w)
			}
		}
	}
	return nil
}

// typedVar returns the slot of variable name if it is declared with type
// t. Event fields shadow variables, as in ident.
func (cc *compiler) typedVar(name string, t ir.Type) (int, bool) {
	slot, ok := cc.slots[name]
	return slot, ok && cc.m.Vars[slot].Type == t && !ir.IsEventField(name)
}

// boolExpr compiles e to a typed boolean closure, or nil.
func (cc *compiler) boolExpr(e ir.Expr) boolFn {
	switch e := e.(type) {
	case ir.Lit:
		if e.V.T == ir.TBool {
			v := e.V.B
			return func(*Frame) bool { return v }
		}
	case ir.Ident:
		if slot, ok := cc.typedVar(e.Name, ir.TBool); ok {
			return func(fr *Frame) bool { return fr.slots.VarWord(slot) != 0 }
		}
	case ir.Unary:
		if e.Op == "!" {
			if x := cc.boolExpr(e.X); x != nil {
				return func(fr *Frame) bool { return !x(fr) }
			}
		}
	case ir.Binary:
		switch e.Op {
		case "&&":
			l, r := cc.boolExpr(e.L), cc.boolExpr(e.R)
			if l == nil || r == nil {
				return nil
			}
			return func(fr *Frame) bool { return l(fr) && r(fr) }
		case "||":
			l, r := cc.boolExpr(e.L), cc.boolExpr(e.R)
			if l == nil || r == nil {
				return nil
			}
			return func(fr *Frame) bool { return l(fr) || r(fr) }
		case "==", "!=":
			return cc.eqBool(e)
		case "<", "<=", ">", ">=":
			// Comparisons widen both sides to float64, as ir's compare
			// does, int/int operands included.
			l, r := cc.floatExpr(e.L), cc.floatExpr(e.R)
			if l == nil || r == nil {
				return nil
			}
			switch e.Op {
			case "<":
				return func(fr *Frame) bool { return l(fr) < r(fr) }
			case "<=":
				return func(fr *Frame) bool { return l(fr) <= r(fr) }
			case ">":
				return func(fr *Frame) bool { return l(fr) > r(fr) }
			default:
				return func(fr *Frame) bool { return l(fr) >= r(fr) }
			}
		}
	}
	return nil
}

// eqBool compiles == or != to a typed closure, or nil. task against a
// string literal, the hottest guard shape of every spec, is one string
// compare; the spec transform writes task on the left, and the other order
// takes the generic path. Other operands are tried as ints (exact), then
// bools, then floats (an int side widened), the cases of ir.Value.Equal.
func (cc *compiler) eqBool(e ir.Binary) boolFn {
	neg := e.Op == "!="
	if id, ok := e.L.(ir.Ident); ok && id.Name == "task" {
		if lit, ok := e.R.(ir.Lit); ok && lit.V.T == ir.TString {
			s := lit.V.S
			if neg {
				return func(fr *Frame) bool { return fr.ev.Task != s }
			}
			return func(fr *Frame) bool { return fr.ev.Task == s }
		}
	}
	if l, r := cc.intExpr(e.L), cc.intExpr(e.R); l != nil && r != nil {
		return func(fr *Frame) bool { return (l(fr) == r(fr)) != neg }
	}
	if l, r := cc.boolExpr(e.L), cc.boolExpr(e.R); l != nil && r != nil {
		return func(fr *Frame) bool { return (l(fr) == r(fr)) != neg }
	}
	if l, r := cc.floatExpr(e.L), cc.floatExpr(e.R); l != nil && r != nil {
		return func(fr *Frame) bool { return (l(fr) == r(fr)) != neg }
	}
	return nil
}

// intExpr compiles e to a typed int64 closure, or nil.
func (cc *compiler) intExpr(e ir.Expr) intFn {
	switch e := e.(type) {
	case ir.Lit:
		if e.V.T == ir.TInt {
			v := e.V.I
			return func(*Frame) int64 { return v }
		}
	case ir.Ident:
		switch e.Name {
		case "t":
			return func(fr *Frame) int64 { return int64(fr.ev.Time) }
		case "path":
			return func(fr *Frame) int64 { return int64(fr.ev.Path) }
		}
		if slot, ok := cc.typedVar(e.Name, ir.TInt); ok {
			return func(fr *Frame) int64 { return int64(fr.slots.VarWord(slot)) }
		}
	case ir.Unary:
		if e.Op == "-" {
			if x := cc.intExpr(e.X); x != nil {
				return func(fr *Frame) int64 { return -x(fr) }
			}
		}
	case ir.Binary:
		var op func(a, b int64) int64
		switch e.Op {
		case "+":
			op = func(a, b int64) int64 { return a + b }
		case "-":
			op = func(a, b int64) int64 { return a - b }
		case "*":
			op = func(a, b int64) int64 { return a * b }
		default:
			return nil
		}
		l, r := cc.intExpr(e.L), cc.intExpr(e.R)
		if l == nil || r == nil {
			return nil
		}
		return func(fr *Frame) int64 { return op(l(fr), r(fr)) }
	}
	return nil
}

// floatExpr compiles e to a typed float64 closure, or nil. It tries
// intExpr first, so an int subtree is computed exactly in int64 and
// widened once at this boundary, the value the interpreter gets by
// evaluating the subtree to an int and widening it. An int expression
// intExpr rejects (one with / or %) is rejected here too.
func (cc *compiler) floatExpr(e ir.Expr) floatFn {
	if x := cc.intExpr(e); x != nil {
		return func(fr *Frame) float64 { return float64(x(fr)) }
	}
	switch e := e.(type) {
	case ir.Lit:
		if e.V.T == ir.TFloat {
			v := e.V.F
			return func(*Frame) float64 { return v }
		}
	case ir.Ident:
		switch e.Name {
		case "data":
			return func(fr *Frame) float64 { return fr.ev.Data }
		case "energy":
			return func(fr *Frame) float64 { return fr.ev.Energy }
		}
		if slot, ok := cc.typedVar(e.Name, ir.TFloat); ok {
			return func(fr *Frame) float64 { return math.Float64frombits(fr.slots.VarWord(slot)) }
		}
	case ir.Unary:
		if e.Op == "-" {
			if x := cc.floatExpr(e.X); x != nil {
				return func(fr *Frame) float64 { return -x(fr) }
			}
		}
	case ir.Binary:
		var op func(a, b float64) float64
		switch e.Op {
		case "+":
			op = func(a, b float64) float64 { return a + b }
		case "-":
			op = func(a, b float64) float64 { return a - b }
		case "*":
			op = func(a, b float64) float64 { return a * b }
		default:
			return nil
		}
		l, r := cc.floatExpr(e.L), cc.floatExpr(e.R)
		if l == nil || r == nil {
			return nil
		}
		return func(fr *Frame) float64 { return op(l(fr), r(fr)) }
	}
	return nil
}
