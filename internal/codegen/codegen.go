// Package codegen is the model-to-text stage of the generator pipeline
// (§4.2): it translates intermediate-language state machines into compilable
// Go source, the counterpart of the paper's C emission. The generated code
// walks each machine top-down — a switch over states, an if per transition —
// exactly the "straightforward translation" the paper cites from the
// statechart-implementation literature.
//
// Generated machines implement Stepper. gen/gen_test.go holds the
// generated health program to the IR interpreter's verdicts over random
// event streams; no other program is tested. Generated code has no error
// channel, so where the interpreter returns an error it does something
// else: an integer division or modulo by zero panics, a float division
// by zero yields an infinity or NaN, and a lossy float-to-int store
// truncates. It also orders two ints exactly, where the interpreter
// widens both to float64 (they differ beyond 2^53). Deployments do not
// run generated code: every monitor set steps through the
// closure-compiled engine (compile.go), which needs no Go compiler and so
// also serves specs installed over the air. The interpreter is the
// reference both engines are tested against.
package codegen

import (
	"fmt"
	"go/format"
	"sort"
	"strings"

	"github.com/tinysystems/artemis-go/internal/ir"
)

// Stepper is the interface generated monitors implement.
type Stepper interface {
	// Name returns the machine name.
	Name() string
	// Step delivers one event, returning signalled failures.
	Step(ev ir.Event) []ir.Failure
	// Reset returns the machine to its initial configuration.
	Reset()
}

// Generate emits a Go source file containing one Stepper per machine plus a
// NewProgram constructor. pkg is the target package name.
func Generate(prog *ir.Program, pkg string) ([]byte, error) {
	if err := prog.Check(); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	g := &generator{}
	g.pf("// Code generated by artemisgen from the ARTEMIS intermediate language. DO NOT EDIT.\n\n")
	g.pf("package %s\n\n", pkg)
	g.pf("import (\n")
	g.pf("\t%q\n", "github.com/tinysystems/artemis-go/internal/action")
	g.pf("\t%q\n", "github.com/tinysystems/artemis-go/internal/codegen")
	g.pf("\t%q\n", "github.com/tinysystems/artemis-go/internal/ir")
	g.pf(")\n\n")
	g.pf("// NewProgram returns fresh instances of every generated monitor,\n")
	g.pf("// each in its initial configuration.\n")
	g.pf("func NewProgram() []codegen.Stepper {\n\tsteppers := []codegen.Stepper{\n")
	for _, m := range prog.Machines {
		g.pf("\t\tnew(%s),\n", typeName(m.Name))
	}
	g.pf("\t}\n\tfor _, s := range steppers {\n\t\ts.Reset()\n\t}\n\treturn steppers\n}\n\n")
	for _, m := range prog.Machines {
		if err := g.machine(m); err != nil {
			return nil, err
		}
	}
	src, err := format.Source([]byte(g.b.String()))
	if err != nil {
		return nil, fmt.Errorf("codegen: generated code does not parse (generator bug): %w\n%s", err, g.b.String())
	}
	return src, nil
}

type generator struct {
	b strings.Builder
}

func (g *generator) pf(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
}

// typeName converts a machine name to an exported Go type name.
func typeName(machine string) string {
	parts := strings.Split(machine, "_")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return strings.Join(parts, "_")
}

func fieldName(v string) string {
	return "V_" + v
}

func goType(t ir.Type) string {
	switch t {
	case ir.TInt:
		return "int64"
	case ir.TFloat:
		return "float64"
	case ir.TBool:
		return "bool"
	default:
		return "string"
	}
}

func zeroLit(v ir.Value) string {
	switch v.T {
	case ir.TInt:
		return fmt.Sprintf("%d", v.I)
	case ir.TFloat:
		return fmt.Sprintf("%g", v.F)
	case ir.TBool:
		return fmt.Sprintf("%t", v.B)
	default:
		return fmt.Sprintf("%q", v.S)
	}
}

func (g *generator) machine(m *ir.Machine) error {
	tn := typeName(m.Name)
	g.pf("// %s implements the %q property machine.\n", tn, m.Name)
	g.pf("type %s struct {\n", tn)
	g.pf("\tstate int\n")
	for _, v := range m.Vars {
		g.pf("\t%s %s\n", fieldName(v.Name), goType(v.Type))
	}
	g.pf("}\n\n")

	g.pf("// Name implements codegen.Stepper.\n")
	g.pf("func (m *%s) Name() string { return %q }\n\n", tn, m.Name)

	g.pf("// Reset implements codegen.Stepper.\n")
	g.pf("func (m *%s) Reset() {\n", tn)
	g.pf("\tm.state = %d\n", m.StateIndex(m.Initial))
	for _, v := range m.Vars {
		g.pf("\tm.%s = %s\n", fieldName(v.Name), zeroLit(v.Init))
	}
	g.pf("}\n\n")

	tc := &typeChecker{m: m}
	g.pf("// Step implements codegen.Stepper.\n")
	g.pf("func (m *%s) Step(ev ir.Event) []ir.Failure {\n", tn)
	g.pf("\tvar failures []ir.Failure\n")
	g.pf("\t_ = failures\n")
	g.pf("\tswitch m.state {\n")
	for si := range m.States {
		st := &m.States[si]
		g.pf("\tcase %d: // %s\n", si, st.Name)
		for ti := range st.Transitions {
			tr := &st.Transitions[ti]
			cond, err := transCond(tc, tr)
			if err != nil {
				return fmt.Errorf("codegen: machine %s state %s: %w", m.Name, st.Name, err)
			}
			g.pf("\t\tif %s {\n", cond)
			if err := g.stmts(tc, tr.Body, "\t\t\t"); err != nil {
				return fmt.Errorf("codegen: machine %s state %s: %w", m.Name, st.Name, err)
			}
			g.pf("\t\t\tm.state = %d // -> %s\n", m.StateIndex(tr.Target), tr.Target)
			g.pf("\t\t\treturn failures\n")
			g.pf("\t\t}\n")
		}
	}
	g.pf("\t}\n")
	g.pf("\treturn nil // implicit self-transition\n")
	g.pf("}\n\n")
	return nil
}

func transCond(tc *typeChecker, tr *ir.Transition) (string, error) {
	var parts []string
	switch tr.Trigger {
	case ir.TrigStart:
		parts = append(parts, "ev.Kind == ir.EvStart")
	case ir.TrigEnd:
		parts = append(parts, "ev.Kind == ir.EvEnd")
	case ir.TrigAny:
		// always matches
	}
	if tr.Guard != nil {
		gexpr, typ, err := genExpr(tc, tr.Guard)
		if err != nil {
			return "", err
		}
		if typ != ir.TBool {
			return "", fmt.Errorf("guard is %v, want bool", typ)
		}
		parts = append(parts, "("+gexpr+")")
	}
	if len(parts) == 0 {
		return "true", nil
	}
	return strings.Join(parts, " && "), nil
}

func (g *generator) stmts(tc *typeChecker, stmts []ir.Stmt, indent string) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case ir.Assign:
			decl := tc.m.Var(s.Name)
			if decl == nil {
				return fmt.Errorf("assignment to undeclared %q", s.Name)
			}
			expr, typ, err := genExpr(tc, s.X)
			if err != nil {
				return err
			}
			conv, err := convert(expr, typ, decl.Type)
			if err != nil {
				return fmt.Errorf("assigning %q: %w", s.Name, err)
			}
			g.pf("%sm.%s = %s\n", indent, fieldName(s.Name), conv)
		case ir.If:
			cond, typ, err := genExpr(tc, s.Cond)
			if err != nil {
				return err
			}
			if typ != ir.TBool {
				return fmt.Errorf("if condition is %v, want bool", typ)
			}
			g.pf("%sif %s {\n", indent, cond)
			if err := g.stmts(tc, s.Then, indent+"\t"); err != nil {
				return err
			}
			if len(s.Else) > 0 {
				g.pf("%s} else {\n", indent)
				if err := g.stmts(tc, s.Else, indent+"\t"); err != nil {
					return err
				}
			}
			g.pf("%s}\n", indent)
		case ir.Fail:
			g.pf("%sfailures = append(failures, ir.Failure{Machine: m.Name(), Action: action.%s, Path: %d})\n",
				indent, exportedAction(s.Action.String()), s.Path)
		default:
			return fmt.Errorf("unknown statement %T", s)
		}
	}
	return nil
}

func exportedAction(name string) string {
	if name == "" {
		return "None"
	}
	return strings.ToUpper(name[:1]) + name[1:]
}

// typeChecker infers expression types for code emission.
type typeChecker struct {
	m *ir.Machine
}

func (tc *typeChecker) identType(name string) (ir.Type, error) {
	switch name {
	case "task":
		return ir.TString, nil
	case "t", "path":
		return ir.TInt, nil
	case "data", "energy":
		return ir.TFloat, nil
	}
	if v := tc.m.Var(name); v != nil {
		return v.Type, nil
	}
	return 0, fmt.Errorf("undeclared identifier %q", name)
}

func identExpr(name string) string {
	switch name {
	case "task":
		return "ev.Task"
	case "t":
		return "int64(ev.Time)"
	case "path":
		return "int64(ev.Path)"
	case "data":
		return "ev.Data"
	case "energy":
		return "ev.Energy"
	}
	return "m." + fieldName(name)
}

// genExpr emits a Go expression and its inferred type.
func genExpr(tc *typeChecker, e ir.Expr) (string, ir.Type, error) {
	switch e := e.(type) {
	case ir.Lit:
		return zeroLit(e.V), e.V.T, nil
	case ir.Ident:
		typ, err := tc.identType(e.Name)
		if err != nil {
			return "", 0, err
		}
		return identExpr(e.Name), typ, nil
	case ir.Unary:
		x, typ, err := genExpr(tc, e.X)
		if err != nil {
			return "", 0, err
		}
		switch e.Op {
		case "!":
			if typ != ir.TBool {
				return "", 0, fmt.Errorf("! on %v", typ)
			}
			return "!(" + x + ")", ir.TBool, nil
		case "-":
			if typ != ir.TInt && typ != ir.TFloat {
				return "", 0, fmt.Errorf("- on %v", typ)
			}
			return "-(" + x + ")", typ, nil
		}
		return "", 0, fmt.Errorf("unknown unary %q", e.Op)
	case ir.Binary:
		return genBinary(tc, e)
	}
	return "", 0, fmt.Errorf("unknown expression %T", e)
}

func genBinary(tc *typeChecker, e ir.Binary) (string, ir.Type, error) {
	l, lt, err := genExpr(tc, e.L)
	if err != nil {
		return "", 0, err
	}
	r, rt, err := genExpr(tc, e.R)
	if err != nil {
		return "", 0, err
	}
	numeric := func(t ir.Type) bool { return t == ir.TInt || t == ir.TFloat }
	wrap := func(s string) string { return "(" + s + ")" }
	switch e.Op {
	case "&&", "||":
		if lt != ir.TBool || rt != ir.TBool {
			return "", 0, fmt.Errorf("%q on %v and %v", e.Op, lt, rt)
		}
		return wrap(l) + " " + e.Op + " " + wrap(r), ir.TBool, nil
	case "==", "!=":
		if lt != rt {
			if !numeric(lt) || !numeric(rt) {
				return "", 0, fmt.Errorf("%q on %v and %v", e.Op, lt, rt)
			}
			l, r = widen(l, lt), widen(r, rt)
		}
		return wrap(l) + " " + e.Op + " " + wrap(r), ir.TBool, nil
	case "<", "<=", ">", ">=":
		if !numeric(lt) || !numeric(rt) {
			return "", 0, fmt.Errorf("%q on %v and %v", e.Op, lt, rt)
		}
		if lt != rt {
			l, r = widen(l, lt), widen(r, rt)
		}
		return wrap(l) + " " + e.Op + " " + wrap(r), ir.TBool, nil
	case "+", "-", "*", "/":
		if !numeric(lt) || !numeric(rt) {
			return "", 0, fmt.Errorf("%q on %v and %v", e.Op, lt, rt)
		}
		if lt == rt {
			return wrap(l) + " " + e.Op + " " + wrap(r), lt, nil
		}
		return widen(l, lt) + " " + e.Op + " " + widen(r, rt), ir.TFloat, nil
	case "%":
		if lt != ir.TInt || rt != ir.TInt {
			return "", 0, fmt.Errorf("%% on %v and %v", lt, rt)
		}
		return wrap(l) + " % " + wrap(r), ir.TInt, nil
	}
	return "", 0, fmt.Errorf("unknown operator %q", e.Op)
}

// widen lifts an int expression to float64 (no-op for float).
func widen(expr string, t ir.Type) string {
	if t == ir.TFloat {
		return "(" + expr + ")"
	}
	return "float64(" + expr + ")"
}

// convert adapts a value expression to a declared variable type.
func convert(expr string, from, to ir.Type) (string, error) {
	if from == to {
		return expr, nil
	}
	switch {
	case to == ir.TFloat && from == ir.TInt:
		return "float64(" + expr + ")", nil
	case to == ir.TInt && from == ir.TFloat:
		return "int64(" + expr + ")", nil
	}
	return "", fmt.Errorf("cannot store %v into %v variable", from, to)
}

// MachineNames lists the machines of a program, sorted; tools print it.
func MachineNames(prog *ir.Program) []string {
	names := make([]string, 0, len(prog.Machines))
	for _, m := range prog.Machines {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}
