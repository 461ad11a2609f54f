// Package transform is the model-to-model stage of the ARTEMIS generator
// pipeline (§3, §4.2): it lowers each property of a specification to one
// finite-state machine in the intermediate language, following the templates
// of Figure 7.
//
// One deliberate deviation from Figure 7 is documented here and in
// EXPERIMENTS.md: the collect template does not reset its item counter when
// it signals a failure. Figure 7's prose resets it, but under
// reset-on-failure the benchmark's Path #1 ("ARTEMIS restarts the first path
// until enough samples are collected", §5.1) could never accumulate ten
// bodyTemp samples — each restart would start over at one. Keeping the count
// across failures is the only semantics under which the paper's own
// evaluation terminates; the counter still resets when the consuming task
// starts successfully.
package transform

import (
	"fmt"
	"sync/atomic"

	"github.com/tinysystems/artemis-go/internal/action"
	"github.com/tinysystems/artemis-go/internal/codegen"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/task"
)

// Options configures compilation.
type Options struct {
	// Graph is the application task graph; required for validation and for
	// inferring the path a property is bound to.
	Graph *task.Graph
	// DataVars lists the store slots available as dpData variables.
	DataVars []string
}

// Binding records which machine checks which property — the runtime uses it
// to re-initialise the monitors of a restarted path (§3.3).
type Binding struct {
	Machine string
	Task    string
	Kind    spec.Kind
	// Path is the path the property is scoped to: the explicit Path clause,
	// else the only path containing the task, else 0 (unscoped).
	Path int
	// AllPaths lists every path containing the task; path re-initialisation
	// uses it to reach unscoped monitors of merged tasks.
	AllPaths []int
}

// Result is a compiled monitor program with its property bindings.
type Result struct {
	Program  *ir.Program
	Bindings []Binding

	stepper atomic.Pointer[codegen.Program]
}

// Stepper returns the closure-compiled form of the result's program,
// compiling it on first use. The compiled program is immutable and cached on
// the Result, so shared results (health.CompiledShared and friends) compile
// once per process however many frameworks they feed. Concurrent first calls
// may compile twice; both products are equivalent and either may win. The
// error is codegen.CompileProgram's, which a checked program never returns.
func (r *Result) Stepper() (*codegen.Program, error) {
	if p := r.stepper.Load(); p != nil {
		return p, nil
	}
	p, err := codegen.CompileProgram(r.Program)
	if err != nil {
		return nil, err
	}
	r.stepper.Store(p)
	return p, nil
}

// graphInfo adapts a task.Graph (plus the data-variable list) to
// spec.GraphInfo.
type graphInfo struct {
	g    *task.Graph
	data map[string]bool
}

func (gi graphInfo) HasTask(name string) bool    { return gi.g.Task(name) != nil }
func (gi graphInfo) HasPath(id int) bool         { return gi.g.PathByID(id) != nil }
func (gi graphInfo) TaskPaths(name string) []int { return gi.g.PathsContaining(name) }
func (gi graphInfo) HasData(name string) bool    { return gi.data[name] }

// Compile validates the specification against the graph and lowers every
// property to a state machine.
func Compile(s *spec.Spec, opts Options) (*Result, error) {
	if opts.Graph == nil {
		return nil, fmt.Errorf("transform: Options.Graph is required")
	}
	gi := graphInfo{g: opts.Graph, data: map[string]bool{}}
	for _, v := range opts.DataVars {
		gi.data[v] = true
	}
	if err := spec.Validate(s, gi); err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	res := &Result{Program: &ir.Program{}}
	used := map[string]int{}
	for _, blk := range s.Blocks {
		for _, p := range blk.Props {
			base := machineName(blk.Task, p)
			used[base]++
			m, err := lower(blk.Task, p, base, used[base], opts.Graph)
			if err != nil {
				return nil, err
			}
			res.Program.Machines = append(res.Program.Machines, m)
			res.Bindings = append(res.Bindings, Binding{
				Machine:  m.Name,
				Task:     blk.Task,
				Kind:     p.Kind,
				Path:     effectivePath(blk.Task, p, opts.Graph),
				AllPaths: opts.Graph.PathsContaining(blk.Task),
			})
		}
	}
	if err := res.Program.Check(); err != nil {
		return nil, fmt.Errorf("transform: generated program failed checks (transform bug): %w", err)
	}
	return res, nil
}

// effectivePath resolves the path a property is bound to.
func effectivePath(taskName string, p spec.Property, g *task.Graph) int {
	if p.Path != 0 {
		return p.Path
	}
	if ids := g.PathsContaining(taskName); len(ids) == 1 {
		return ids[0]
	}
	return 0
}

// lower builds the Figure-7 machine for one property. seq disambiguates
// otherwise-identical machine names (two maxTries on the same task).
func lower(taskName string, p spec.Property, base string, seq int, g *task.Graph) (*ir.Machine, error) {
	name := base
	if seq > 1 {
		name = fmt.Sprintf("%s_%d", base, seq)
	}
	switch p.Kind {
	case spec.KindMaxTries:
		return maxTriesMachine(name, taskName, p), nil
	case spec.KindMaxDuration:
		return maxDurationMachine(name, taskName, p), nil
	case spec.KindMITD:
		return mitdMachine(name, taskName, p), nil
	case spec.KindCollect:
		return collectMachine(name, taskName, p), nil
	case spec.KindDpData:
		return dpDataMachine(name, taskName, p, g)
	case spec.KindPeriod:
		return periodMachine(name, taskName, p), nil
	case spec.KindMinEnergy:
		return minEnergyMachine(name, taskName, p), nil
	}
	return nil, fmt.Errorf("transform: unsupported property kind %v", p.Kind)
}

func machineName(taskName string, p spec.Property) string {
	name := fmt.Sprintf("%v_%s", p.Kind, taskName)
	if p.DpTask != "" {
		name += "_" + p.DpTask
	}
	if p.DataVar != "" {
		name += "_" + p.DataVar
	}
	return name
}

// Expression helpers.

func taskIs(name string) ir.Expr {
	return ir.Binary{Op: "==", L: ir.Ident{Name: "task"}, R: ir.Lit{V: ir.Str(name)}}
}

func pathIs(id int) ir.Expr {
	return ir.Binary{Op: "==", L: ir.Ident{Name: "path"}, R: ir.Lit{V: ir.Int(int64(id))}}
}

func and(l, r ir.Expr) ir.Expr { return ir.Binary{Op: "&&", L: l, R: r} }

func or(l, r ir.Expr) ir.Expr { return ir.Binary{Op: "||", L: l, R: r} }

// onTask narrows a task match to an explicit path when the property has one
// (path merging, §3.2): "send" in path 2 is a different obligation from
// "send" in path 3.
func onTask(name string, p spec.Property) ir.Expr {
	e := taskIs(name)
	if p.Path != 0 {
		e = and(e, pathIs(p.Path))
	}
	return e
}

func intVar(name string) ir.VarDecl {
	return ir.VarDecl{Name: name, Type: ir.TInt, Init: ir.Int(0)}
}

func boolVar(name string) ir.VarDecl {
	return ir.VarDecl{Name: name, Type: ir.TBool, Init: ir.Bool(false)}
}

func assign(name string, x ir.Expr) ir.Stmt { return ir.Assign{Name: name, X: x} }

func assignInt(name string, v int64) ir.Stmt { return assign(name, ir.Lit{V: ir.Int(v)}) }

func inc(name string) ir.Stmt {
	return assign(name, ir.Binary{Op: "+", L: ir.Ident{Name: name}, R: ir.Lit{V: ir.Int(1)}})
}

func failStmt(act action.Action, path int) ir.Stmt { return ir.Fail{Action: act, Path: path} }

func lit(i int64) ir.Expr { return ir.Lit{V: ir.Int(i)} }

func identE(name string) ir.Expr { return ir.Ident{Name: name} }

// maxTriesMachine: Figure 7, first machine. Counts start attempts of the
// task; at the limit it signals the onFail action.
func maxTriesMachine(name, taskName string, p spec.Property) *ir.Machine {
	match := onTask(taskName, p)
	return &ir.Machine{
		Name:    name,
		Vars:    []ir.VarDecl{intVar("i")},
		Initial: "NotStarted",
		States: []ir.State{
			{Name: "NotStarted", Transitions: []ir.Transition{{
				Trigger: ir.TrigStart, Guard: match, Target: "Started",
				Body: []ir.Stmt{assignInt("i", 1)},
			}}},
			{Name: "Started", Transitions: []ir.Transition{
				{
					Trigger: ir.TrigStart,
					Guard:   and(match, ir.Binary{Op: "<", L: identE("i"), R: lit(p.Count)}),
					Target:  "Started",
					Body:    []ir.Stmt{inc("i")},
				},
				{
					Trigger: ir.TrigStart,
					Guard:   and(match, ir.Binary{Op: ">=", L: identE("i"), R: lit(p.Count)}),
					Target:  "NotStarted",
					Body:    []ir.Stmt{assignInt("i", 0), failStmt(p.OnFail, p.Path)},
				},
				{
					Trigger: ir.TrigEnd, Guard: match, Target: "NotStarted",
					Body: []ir.Stmt{assignInt("i", 0)},
				},
			}},
		},
	}
}

// maxDurationMachine: Figure 7, second machine. The start time is recorded
// once; any event past the allowed interval exposes the violation.
func maxDurationMachine(name, taskName string, p spec.Property) *ir.Machine {
	match := onTask(taskName, p)
	deadline := ir.Binary{Op: "+", L: identE("start"), R: lit(int64(p.Duration))}
	return &ir.Machine{
		Name:    name,
		Vars:    []ir.VarDecl{intVar("start")},
		Initial: "NotStarted",
		States: []ir.State{
			{Name: "NotStarted", Transitions: []ir.Transition{{
				Trigger: ir.TrigStart, Guard: match, Target: "Started",
				Body: []ir.Stmt{assign("start", identE("t"))},
			}}},
			{Name: "Started", Transitions: []ir.Transition{
				{
					Trigger: ir.TrigEnd,
					Guard:   and(match, ir.Binary{Op: "<=", L: identE("t"), R: deadline}),
					Target:  "NotStarted",
				},
				{
					Trigger: ir.TrigAny,
					Guard:   ir.Binary{Op: ">", L: identE("t"), R: deadline},
					Target:  "NotStarted",
					Body:    []ir.Stmt{failStmt(p.OnFail, p.Path)},
				},
			}},
		},
	}
}

// mitdMachine: Figure 7, fourth machine. The dependent task's end time is
// recorded; the consuming task must start within the limit. Violations
// 1..maxAttempt-1 signal OnFail; violation maxAttempt signals the
// exhaustion action (skipPath in Figure 5) to guarantee progress.
func mitdMachine(name, taskName string, p spec.Property) *ir.Machine {
	match := onTask(taskName, p)
	depEnd := taskIs(p.DpTask)
	late := ir.Binary{Op: ">", L: ir.Binary{Op: "-", L: identE("t"), R: identE("endB")}, R: lit(int64(p.Duration))}
	inTime := ir.Binary{Op: "<=", L: ir.Binary{Op: "-", L: identE("t"), R: identE("endB")}, R: lit(int64(p.Duration))}

	// The obligation holds until the consuming task *completes*: a start
	// that passes the check keeps the machine in WaitStartA, because a power
	// failure during the task re-executes it after an arbitrary charging
	// delay and that re-start must be re-checked (this is exactly the §5.1
	// scenario: failures land inside send, and the MITD is violated by the
	// restarted send, not the first one). Completion of the task discharges
	// the obligation.
	waitStart := ir.State{Name: "WaitStartA"}
	waitStart.Transitions = append(waitStart.Transitions,
		ir.Transition{
			Trigger: ir.TrigEnd, Guard: depEnd, Target: "WaitStartA",
			Body: []ir.Stmt{assign("endB", identE("t"))}, // fresher data re-arms the window
		},
		ir.Transition{
			Trigger: ir.TrigEnd, Guard: match, Target: "WaitEndB",
			Body: []ir.Stmt{assignInt("attempts", 0)},
		},
		ir.Transition{
			Trigger: ir.TrigStart, Guard: and(match, inTime), Target: "WaitStartA",
		},
	)
	if p.MaxAttempt > 0 {
		waitStart.Transitions = append(waitStart.Transitions,
			ir.Transition{
				Trigger: ir.TrigStart,
				Guard: and(match, and(late,
					ir.Binary{Op: "<", L: identE("attempts"), R: lit(p.MaxAttempt - 1)})),
				Target: "WaitStartA",
				Body:   []ir.Stmt{inc("attempts"), failStmt(p.OnFail, p.Path)},
			},
			ir.Transition{
				Trigger: ir.TrigStart,
				Guard: and(match, and(late,
					ir.Binary{Op: ">=", L: identE("attempts"), R: lit(p.MaxAttempt - 1)})),
				Target: "WaitEndB",
				Body:   []ir.Stmt{assignInt("attempts", 0), failStmt(p.MaxAttemptAction, p.Path)},
			},
		)
	} else {
		waitStart.Transitions = append(waitStart.Transitions,
			ir.Transition{
				Trigger: ir.TrigStart, Guard: and(match, late), Target: "WaitStartA",
				Body: []ir.Stmt{failStmt(p.OnFail, p.Path)},
			},
		)
	}
	return &ir.Machine{
		Name:    name,
		Vars:    []ir.VarDecl{intVar("endB"), intVar("attempts")},
		Initial: "WaitEndB",
		States: []ir.State{
			{Name: "WaitEndB", Transitions: []ir.Transition{{
				Trigger: ir.TrigEnd, Guard: depEnd, Target: "WaitStartA",
				Body: []ir.Stmt{assign("endB", identE("t"))},
			}}},
			waitStart,
		},
	}
}

// collectMachine: Figure 7, third machine, with two adjustments for
// intermittent re-execution (see the package comment): the counter is kept
// across failures, and the collected items are consumed when the consuming
// task *ends* rather than when it starts — a power failure between the
// consumer's start and its completion re-executes the task, and the re-run's
// start check must still see the items it is about to consume.
func collectMachine(name, taskName string, p spec.Property) *ir.Machine {
	match := onTask(taskName, p)
	return &ir.Machine{
		Name:    name,
		Vars:    []ir.VarDecl{intVar("i")},
		Initial: "Counting",
		States: []ir.State{
			{Name: "Counting", Transitions: []ir.Transition{
				{
					Trigger: ir.TrigEnd, Guard: taskIs(p.DpTask), Target: "Counting",
					Body: []ir.Stmt{inc("i")},
				},
				{
					Trigger: ir.TrigEnd, Guard: match, Target: "Counting",
					Body: []ir.Stmt{assignInt("i", 0)}, // items consumed on completion
				},
				{
					Trigger: ir.TrigStart,
					Guard:   and(match, ir.Binary{Op: "<", L: identE("i"), R: lit(p.Count)}),
					Target:  "Counting",
					Body:    []ir.Stmt{failStmt(p.OnFail, p.Path)},
				},
			}},
		},
	}
}

// dpDataMachine checks the task's dependent data against the range when the
// task ends (the avgTemp emergency check of Figure 5).
func dpDataMachine(name, taskName string, p spec.Property, g *task.Graph) (*ir.Machine, error) {
	tk := g.Task(taskName)
	if tk == nil {
		return nil, fmt.Errorf("transform: dpData on unknown task %q", taskName)
	}
	if tk.DepData != p.DataVar {
		return nil, fmt.Errorf("transform: dpData variable %q does not match task %q's declared dependent data %q",
			p.DataVar, taskName, tk.DepData)
	}
	match := onTask(taskName, p)
	outOfRange := or(
		ir.Binary{Op: "<", L: identE("data"), R: ir.Lit{V: ir.Float(p.Range.Lo)}},
		ir.Binary{Op: ">", L: identE("data"), R: ir.Lit{V: ir.Float(p.Range.Hi)}},
	)
	return &ir.Machine{
		Name:    name,
		Initial: "Watching",
		States: []ir.State{
			{Name: "Watching", Transitions: []ir.Transition{{
				Trigger: ir.TrigEnd,
				Guard:   and(match, outOfRange),
				Target:  "Watching",
				Body:    []ir.Stmt{failStmt(p.OnFail, p.Path)},
			}}},
		},
	}, nil
}

// periodMachine checks that consecutive starts of the task are no further
// apart than period + jitter. Early starts are accepted: the property
// guards against charging delays stretching the schedule (Table 1), not
// against running ahead of it.
func periodMachine(name, taskName string, p spec.Property) *ir.Machine {
	match := onTask(taskName, p)
	budget := int64(p.Duration + p.Jitter)
	late := ir.Binary{Op: ">", L: ir.Binary{Op: "-", L: identE("t"), R: identE("last")}, R: lit(budget)}
	onTimeG := ir.Binary{Op: "<=", L: ir.Binary{Op: "-", L: identE("t"), R: identE("last")}, R: lit(budget)}

	idle := ir.State{Name: "Idle"}
	first := ir.Transition{
		Trigger: ir.TrigStart,
		Guard:   and(match, ir.Unary{Op: "!", X: identE("started")}),
		Target:  "Idle",
		Body:    []ir.Stmt{assign("started", ir.Lit{V: ir.Bool(true)}), assign("last", identE("t"))},
	}
	ok := ir.Transition{
		Trigger: ir.TrigStart,
		Guard:   and(match, and(identE("started"), onTimeG)),
		Target:  "Idle",
		Body:    []ir.Stmt{assign("last", identE("t")), assignInt("attempts", 0)},
	}
	idle.Transitions = append(idle.Transitions, first, ok)
	if p.MaxAttempt > 0 {
		idle.Transitions = append(idle.Transitions,
			ir.Transition{
				Trigger: ir.TrigStart,
				Guard: and(match, and(identE("started"), and(late,
					ir.Binary{Op: "<", L: identE("attempts"), R: lit(p.MaxAttempt - 1)}))),
				Target: "Idle",
				Body:   []ir.Stmt{assign("last", identE("t")), inc("attempts"), failStmt(p.OnFail, p.Path)},
			},
			ir.Transition{
				Trigger: ir.TrigStart,
				Guard: and(match, and(identE("started"), and(late,
					ir.Binary{Op: ">=", L: identE("attempts"), R: lit(p.MaxAttempt - 1)}))),
				Target: "Idle",
				Body:   []ir.Stmt{assign("last", identE("t")), assignInt("attempts", 0), failStmt(p.MaxAttemptAction, p.Path)},
			},
		)
	} else {
		idle.Transitions = append(idle.Transitions,
			ir.Transition{
				Trigger: ir.TrigStart,
				Guard:   and(match, and(identE("started"), late)),
				Target:  "Idle",
				Body:    []ir.Stmt{assign("last", identE("t")), failStmt(p.OnFail, p.Path)},
			},
		)
	}
	return &ir.Machine{
		Name:    name,
		Vars:    []ir.VarDecl{intVar("last"), intVar("attempts"), boolVar("started")},
		Initial: "Idle",
		States:  []ir.State{idle},
	}
}

// minEnergyMachine implements the §4.2.2 extension property: the supply
// level (the "energy" event field, filled from the runtime's capacitor
// primitive) must be at least the threshold when the task starts; otherwise
// the onFail action — typically skipTask — avoids starting work that a
// brown-out would only waste.
func minEnergyMachine(name, taskName string, p spec.Property) *ir.Machine {
	match := onTask(taskName, p)
	tooLow := ir.Binary{Op: "<", L: identE("energy"), R: ir.Lit{V: ir.Float(p.EnergyUJ)}}
	return &ir.Machine{
		Name:    name,
		Initial: "Watching",
		States: []ir.State{
			{Name: "Watching", Transitions: []ir.Transition{{
				Trigger: ir.TrigStart,
				Guard:   and(match, tooLow),
				Target:  "Watching",
				Body:    []ir.Stmt{failStmt(p.OnFail, p.Path)},
			}}},
		},
	}
}
