package codegen

import "github.com/tinysystems/artemis-go/internal/ir"

// TaskID is an event task's entry in a Program's task table: 1 up to
// maxTaskID for the task literals its guards lead with, in order of first
// appearance, and 0 for every other task.
type TaskID uint8

// maxTaskID bounds the interned literals so that a state's candidate set
// fits one uint64. Literals past it share id 0 with the tasks no guard
// names, which keeps every skip exact and only makes the table coarser.
const maxTaskID = 63

// allTasks is the candidate set of a transition with no leading literal.
const allTasks = ^uint64(0)

// taskTable interns the string literal at the head of each guard's &&
// chain, task == "lit" or "lit" == task; literal i has TaskID i+1. Event
// fields shadow variables, so task is always the event's task. A few
// literals cover every example, and a scan over them beats a map lookup.
type taskTable []string

// id returns task's TaskID.
func (t taskTable) id(task string) TaskID {
	for i, lit := range t {
		if lit == task {
			return TaskID(i + 1)
		}
	}
	return 0
}

// intern adds the leading literal of every guard of m, in source order.
func (t *taskTable) intern(m *ir.Machine) {
	for _, st := range m.States {
		for _, tr := range st.Transitions {
			if lit, ok := leadingTask(tr.Guard); ok && len(*t) < maxTaskID && t.id(lit) == 0 {
				*t = append(*t, lit)
			}
		}
	}
}

// candidates returns the set of task ids a transition with this guard can
// fire on: the leading literal's id alone, or every id.
func (t taskTable) candidates(guard ir.Expr) uint64 {
	if lit, ok := leadingTask(guard); ok {
		return 1 << t.id(lit)
	}
	return allTasks
}

// leadingTask returns L when the leftmost leaf of guard's && chain is
// task == L or L == task for a string literal L. ir's && and the compiled
// ones evaluate that leaf first, and it cannot fail, so on any other task
// the guard is false and evaluates nothing else.
func leadingTask(guard ir.Expr) (string, bool) {
	for {
		b, ok := guard.(ir.Binary)
		if !ok {
			return "", false
		}
		if b.Op != "&&" {
			if b.Op != "==" {
				return "", false
			}
			if lit, ok := taskLiteral(b.L, b.R); ok {
				return lit, true
			}
			return taskLiteral(b.R, b.L)
		}
		guard = b.L
	}
}

// taskLiteral returns the string literal y when x is the task field.
func taskLiteral(x, y ir.Expr) (string, bool) {
	id, ok := x.(ir.Ident)
	if !ok || id.Name != "task" {
		return "", false
	}
	lit, ok := y.(ir.Lit)
	if !ok || lit.V.T != ir.TString {
		return "", false
	}
	return lit.V.S, true
}
