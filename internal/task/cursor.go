package task

import (
	"errors"
	"fmt"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/nvm"
)

// ErrStuck reports that a runtime looped without making progress on
// continuous power: its step budget ran out with no power failure to end
// the loop (e.g. a path restarted forever with no failure possible). The
// reboot budget cannot catch this case because no reboot happens.
var ErrStuck = errors.New("task: no progress within the step budget")

// ErrCorrupt reports that a value loaded from a runtime's persistent control
// region failed validation (a soft error flipped bits the integrity layer
// could not repair, or integrity is disabled). It is a typed, recoverable
// error, never a panic, so fault campaigns can classify it as a detection.
var ErrCorrupt = errors.New("task: persistent control state corrupted")

// Layout places a Cursor's four words in its runtime's control region, as
// word indices (8 bytes each). Each runtime passes a constant layout.
type Layout struct {
	Path, Task, Round, Done int
}

// Packed is the layout of a control region that holds a cursor and nothing
// else, CursorBytes long.
var Packed = Layout{Path: 0, Task: 1, Round: 2, Done: 3}

// CursorBytes is the size of a Packed control region.
const CursorBytes = 4 * 8

// Cursor is a runtime's persistent position in the task graph: the path and
// task under execution, the round, and whether the application is done. It
// is the t = next() of Figure 2's task loop,
//
//	while(1) { t = next(); if props_satisfied(t) run(t) else adapt(); }
//
// which ARTEMIS, Mayfly and Ocelot all run; they differ only in where the
// property checks live and how they adapt. The cursor lives over four words
// of a committed region that the runtime allocates and commits itself:
// every move below is only staged, and becomes durable at the runtime's
// next commit of that region, together with whatever else the runtime's
// commit group holds.
type Cursor struct {
	ctl    *nvm.Committed
	graph  *Graph
	rounds int
	at     Layout
}

// NewCursor places a cursor over ctl at the given layout. The graph's paths
// run in order, rounds times (once when rounds <= 0).
func NewCursor(ctl *nvm.Committed, g *Graph, rounds int, at Layout) Cursor {
	if rounds <= 0 {
		rounds = 1
	}
	return Cursor{ctl: ctl, graph: g, rounds: rounds, at: at}
}

func (c *Cursor) word(w int) int64   { return int64(c.ctl.ReadUint64(w * 8)) }
func (c *Cursor) set(w int, v int64) { c.ctl.WriteUint64(w*8, uint64(v)) }

// Reset stages the start position: the first task of the first path in the
// first round, not done.
func (c *Cursor) Reset() {
	c.set(c.at.Path, 0)
	c.set(c.at.Task, 0)
	c.set(c.at.Round, 0)
	c.set(c.at.Done, 0)
}

// Position returns the raw round, path and task indices, unchecked: after a
// soft error they may be out of range (see Check).
func (c *Cursor) Position() (round, path, task int64) {
	return c.word(c.at.Round), c.word(c.at.Path), c.word(c.at.Task)
}

// Path returns the path under execution.
func (c *Cursor) Path() *Path { return c.graph.Paths[c.word(c.at.Path)] }

// Task returns the task under execution.
func (c *Cursor) Task() *Task { return c.Path().Tasks[c.word(c.at.Task)] }

// Done reports whether the last round has finished.
func (c *Cursor) Done() bool { return c.word(c.at.Done) != 0 }

// NextTask moves to the next task of the current path. It reports false,
// and stays put, when the current task is the path's last.
func (c *Cursor) NextTask() bool {
	next := c.word(c.at.Task) + 1
	if int(next) >= len(c.Path().Tasks) {
		return false
	}
	c.set(c.at.Task, next)
	return true
}

// NextPath moves to the first task of the next path, or to the next round
// after the last path.
func (c *Cursor) NextPath() {
	next := c.word(c.at.Path) + 1
	if int(next) >= len(c.graph.Paths) {
		c.NextRound()
		return
	}
	c.set(c.at.Path, next)
	c.set(c.at.Task, 0)
}

// NextRound moves to the first task of the first path in the next round.
// After the last round it marks the cursor done and leaves the position
// where it was.
func (c *Cursor) NextRound() {
	round := c.word(c.at.Round) + 1
	if int(round) >= c.rounds {
		c.set(c.at.Done, 1)
		return
	}
	c.set(c.at.Round, round)
	c.set(c.at.Path, 0)
	c.set(c.at.Task, 0)
}

// Rewind moves back to the current path's first task.
func (c *Cursor) Rewind() { c.set(c.at.Task, 0) }

// Check bounds-checks every staged word that Path and Task index with, and
// the round, turning a corrupted load into ErrCorrupt instead of an
// index-out-of-range panic. A done cursor indexes nothing and passes. It
// reads only the volatile stage, so it costs nothing persistent.
func (c *Cursor) Check() error {
	if c.Done() {
		return nil
	}
	paths := c.graph.Paths
	pi := c.word(c.at.Path)
	if pi < 0 || int(pi) >= len(paths) {
		return fmt.Errorf("%w: path index %d out of range [0,%d)", ErrCorrupt, pi, len(paths))
	}
	ti := c.word(c.at.Task)
	if ti < 0 || int(ti) >= len(paths[pi].Tasks) {
		return fmt.Errorf("%w: task index %d out of range in path %d", ErrCorrupt, ti, paths[pi].ID)
	}
	if rd := c.word(c.at.Round); rd < 0 || rd >= int64(c.rounds) {
		return fmt.Errorf("%w: round %d out of range [0,%d)", ErrCorrupt, rd, c.rounds)
	}
	return nil
}

// Run executes t's body through c, which a runtime keeps and reuses for
// every task it runs, with the costs attributed to device.CompApp. It
// does not commit the store: the caller owns the task boundary.
func (c *Ctx) Run(t *Task) error {
	c.Task = t
	prev := c.MCU.SetComponent(device.CompApp)
	err := t.Execute(c)
	c.MCU.SetComponent(prev)
	if err != nil {
		return fmt.Errorf("task %s: %w", t.Name, err)
	}
	return nil
}
