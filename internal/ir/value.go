// Package ir is the ARTEMIS intermediate language (§3.3): properties are
// represented as finite-state machines whose transitions are triggered by
// runtime events (task start/end), guarded by boolean expressions, and whose
// bodies update persistent variables and may signal property failures with
// corrective actions.
//
// The package provides the machine model, a small dynamically-checked
// expression language (integers, floats, booleans, strings), a textual
// concrete syntax with parser and printer (developers can author machines
// directly when the property language lacks expressiveness), a static
// checker, and an interpreter parameterised over a variable store so that
// monitors can keep machine state in non-volatile memory.
package ir

import (
	"fmt"
	"strconv"
)

// Type classifies runtime values.
type Type int

// Value types.
const (
	TInt Type = iota
	TFloat
	TBool
	TString
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	case TString:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// ParseType resolves a type name in the textual syntax.
func ParseType(s string) (Type, error) {
	switch s {
	case "int":
		return TInt, nil
	case "float":
		return TFloat, nil
	case "bool":
		return TBool, nil
	case "string":
		return TString, nil
	}
	return 0, fmt.Errorf("unknown type %q (want int, float, bool, or string)", s)
}

// Value is a tagged union of the IR's runtime values. Time values
// (timestamps, durations) are TInt microseconds.
type Value struct {
	T Type
	I int64
	F float64
	B bool
	S string
}

// Int wraps an int64.
func Int(i int64) Value { return Value{T: TInt, I: i} }

// Float wraps a float64.
func Float(f float64) Value { return Value{T: TFloat, F: f} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{T: TBool, B: b} }

// String wraps a string.
func Str(s string) Value { return Value{T: TString, S: s} }

func (v Value) String() string {
	switch v.T {
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TBool:
		return strconv.FormatBool(v.B)
	case TString:
		return strconv.Quote(v.S)
	default:
		return fmt.Sprintf("value(%d)", int(v.T))
	}
}

// AsFloat widens a numeric value to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.T {
	case TInt:
		return float64(v.I), nil
	case TFloat:
		return v.F, nil
	}
	return 0, fmt.Errorf("ir: %v is not numeric", v)
}

// Truthy returns the boolean content, or an error for non-booleans.
func (v Value) Truthy() (bool, error) {
	if v.T != TBool {
		return false, fmt.Errorf("ir: %v is not a boolean", v)
	}
	return v.B, nil
}

// Equal compares two values; numerics compare across int/float.
func (v Value) Equal(w Value) (bool, error) {
	if v.T == w.T {
		switch v.T {
		case TInt:
			return v.I == w.I, nil
		case TFloat:
			return v.F == w.F, nil
		case TBool:
			return v.B == w.B, nil
		case TString:
			return v.S == w.S, nil
		}
	}
	if isNumeric(v.T) && isNumeric(w.T) {
		a, _ := v.AsFloat()
		b, _ := w.AsFloat()
		return a == b, nil
	}
	return false, fmt.Errorf("ir: cannot compare %v with %v", v.T, w.T)
}

func isNumeric(t Type) bool { return t == TInt || t == TFloat }

// Encode packs the value's payload into a uint64 for persistent storage.
// Strings are not encodable: monitor variables are scalars.
func (v Value) Encode() (uint64, error) {
	switch v.T {
	case TInt:
		return uint64(v.I), nil
	case TFloat:
		return floatBits(v.F), nil
	case TBool:
		if v.B {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("ir: cannot persist %v value", v.T)
}

// Decode unpacks a uint64 into a value of the given type.
func Decode(t Type, bits uint64) (Value, error) {
	switch t {
	case TInt:
		return Int(int64(bits)), nil
	case TFloat:
		return Float(floatFromBits(bits)), nil
	case TBool:
		return Bool(bits != 0), nil
	}
	return Value{}, fmt.Errorf("ir: cannot load %v value", t)
}
