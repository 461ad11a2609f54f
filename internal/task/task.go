// Package task implements the task-based intermittent programming model
// ARTEMIS builds on (Chain, InK, Alpaca — §3.1): applications are decomposed
// into atomic tasks connected into paths.
//
// Tasks have all-or-nothing semantics: their outputs go to a staged,
// double-buffered store that the runtime commits only when the task
// completes, so a power failure mid-task rolls every modification back and
// the task re-executes idempotently. A Path is an ordered task sequence; the
// application is a set of paths executed in order (Figure 6 shows the
// benchmark's three paths merging on the send task — the same *Task value
// may appear in several paths).
package task

import (
	"fmt"
	"math"
	"sort"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// Task is an atomic unit of application work.
type Task struct {
	// Name identifies the task in property specifications and events.
	Name string

	// Cycles is the task's base CPU cost, executed before Run.
	Cycles int64

	// Peripherals lists peripheral operations the task performs, in order,
	// before Run. Each entry is a name in the device profile.
	Peripherals []string

	// Run, when non-nil, is the task's application logic. It executes after
	// the declared Cycles and Peripherals and may perform additional work
	// through the context. It must be idempotent with respect to the staged
	// store: re-execution after a rollback must produce the same outputs.
	Run func(*Ctx) error

	// DepData names the store slot whose value the runtime attaches to this
	// task's EndTask event, for dpData range properties (the avgTemp
	// dependency in Figure 4/5). Empty when the task has none.
	DepData string
}

// Path is an ordered sequence of tasks with a positive identifier.
type Path struct {
	ID    int
	Tasks []*Task
}

// Graph is a validated set of paths.
type Graph struct {
	Paths []*Path
	tasks map[string]*Task
}

// NewGraph validates and assembles paths into a graph. Paths execute in the
// given order. Task names must be unique per *Task: a name appearing in
// multiple paths must be the same task value (path merging).
func NewGraph(paths ...*Path) (*Graph, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("task: graph needs at least one path")
	}
	g := &Graph{Paths: paths, tasks: make(map[string]*Task)}
	seenID := map[int]bool{}
	for _, p := range paths {
		if p == nil {
			return nil, fmt.Errorf("task: nil path")
		}
		if p.ID <= 0 {
			return nil, fmt.Errorf("task: path ID %d must be positive", p.ID)
		}
		if seenID[p.ID] {
			return nil, fmt.Errorf("task: duplicate path ID %d", p.ID)
		}
		seenID[p.ID] = true
		if len(p.Tasks) == 0 {
			return nil, fmt.Errorf("task: path %d has no tasks", p.ID)
		}
		for _, t := range p.Tasks {
			if t == nil {
				return nil, fmt.Errorf("task: nil task in path %d", p.ID)
			}
			if t.Name == "" {
				return nil, fmt.Errorf("task: unnamed task in path %d", p.ID)
			}
			if prev, ok := g.tasks[t.Name]; ok && prev != t {
				return nil, fmt.Errorf("task: name %q bound to two different tasks", t.Name)
			}
			g.tasks[t.Name] = t
		}
	}
	return g, nil
}

// Task returns the task with the given name, or nil.
func (g *Graph) Task(name string) *Task { return g.tasks[name] }

// TaskNames returns all task names in sorted order, so anything laid out
// from them (Mayfly's per-task FRAM slots) is the same on every run.
func (g *Graph) TaskNames() []string {
	names := make([]string, 0, len(g.tasks))
	for n := range g.tasks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PathByID returns the path with the given ID, or nil.
func (g *Graph) PathByID(id int) *Path {
	for _, p := range g.Paths {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// PathIndex returns the position of the path with the given ID in execution
// order, or -1.
func (g *Graph) PathIndex(id int) int {
	for i, p := range g.Paths {
		if p.ID == id {
			return i
		}
	}
	return -1
}

// PathsContaining returns the IDs of all paths that include the named task,
// in execution order. Property checking uses this to resolve which path a
// task-scoped action applies to when the spec omits an explicit Path (only
// required for merged tasks, per §3.2).
func (g *Graph) PathsContaining(name string) []int {
	var ids []int
	for _, p := range g.Paths {
		for _, t := range p.Tasks {
			if t.Name == name {
				ids = append(ids, p.ID)
				break
			}
		}
	}
	return ids
}

// Persistent is anything with task-boundary commit semantics: staged
// volatile mutations become durable at Commit and are discarded by
// Rollback. Store and Channel implement it; the runtime commits every
// registered Persistent at task completion and rolls all of them back on
// reboot.
type Persistent interface {
	Commit()
	Rollback()
}

// Store is the persistent task-output store: named float64 slots staged in
// SRAM and committed to FRAM atomically at task boundaries.
type Store struct {
	c *nvm.Committed
	// keys holds the slot names in declaration order; slot i lives at byte
	// offset i*8. Stores are small (a handful of outputs), so a linear
	// scan resolves a name faster than a map lookup — no hashing — and
	// construction allocates one slice instead of a map.
	keys []string
}

// NewStore allocates a store with the given slot names in mem.
func NewStore(mem *nvm.Memory, owner string, keys []string) (*Store, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("task: store needs at least one slot")
	}
	for i, k := range keys {
		if k == "" {
			return nil, fmt.Errorf("task: empty slot name at %d", i)
		}
		for _, prev := range keys[:i] {
			if prev == k {
				return nil, fmt.Errorf("task: duplicate slot %q", k)
			}
		}
	}
	c, err := nvm.AllocCommitted(mem, owner, "store", len(keys)*8)
	if err != nil {
		return nil, err
	}
	ks := make([]string, len(keys))
	copy(ks, keys)
	return &Store{c: c, keys: ks}, nil
}

// Has reports whether the store defines the slot.
func (s *Store) Has(key string) bool {
	for _, k := range s.keys {
		if k == key {
			return true
		}
	}
	return false
}

func (s *Store) offset(key string) int {
	for i, k := range s.keys {
		if k == key {
			return i * 8
		}
	}
	panic(fmt.Sprintf("task: undefined store slot %q", key))
}

// Get reads a slot's staged value.
func (s *Store) Get(key string) float64 {
	return math.Float64frombits(s.c.ReadUint64(s.offset(key)))
}

// Set stages a slot value; it persists at the next Commit.
func (s *Store) Set(key string, v float64) {
	s.c.WriteUint64(s.offset(key), math.Float64bits(v))
}

// Add stages an increment.
func (s *Store) Add(key string, dv float64) { s.Set(key, s.Get(key)+dv) }

// Join couples the store's commits to a shared-selector group (see
// nvm.CommitGroup): the ARTEMIS runtime joins the store, channels, and its
// own control region so a task's outputs and the control-state advance
// become durable in one atomic flip.
func (s *Store) Join(g *nvm.CommitGroup) { s.c.Join(g) }

// Commit atomically persists all staged slots. The runtime calls this at
// task completion.
func (s *Store) Commit() { s.c.Commit() }

// Rollback discards staged writes, restoring the last committed image. The
// runtime calls this on reboot.
func (s *Store) Rollback() { s.c.Reopen() }

// Backing exposes the committed region so an integrity guard can wrap it.
func (s *Store) Backing() *nvm.Committed { return s.c }

// Ctx is the execution context handed to a task's Run function.
type Ctx struct {
	MCU   *device.MCU
	Store *Store
	Task  *Task
}

// Exec performs CPU work.
func (c *Ctx) Exec(cycles int64) { c.MCU.Exec(cycles) }

// Peripheral performs one peripheral operation.
func (c *Ctx) Peripheral(name string) { c.MCU.Peripheral(name) }

// Now returns the current (persistent) time.
func (c *Ctx) Now() simclock.Time { return c.MCU.Now() }

// Get reads a store slot.
func (c *Ctx) Get(key string) float64 { return c.Store.Get(key) }

// Set stages a store slot value.
func (c *Ctx) Set(key string, v float64) { c.Store.Set(key, v) }

// Add stages a store increment.
func (c *Ctx) Add(key string, dv float64) { c.Store.Add(key, dv) }

// Execute runs the task body (declared costs, then Run) under the given
// context. It does not commit the store; the caller owns the task boundary.
func (t *Task) Execute(ctx *Ctx) error {
	ctx.MCU.Exec(t.Cycles)
	for _, p := range t.Peripherals {
		ctx.MCU.Peripheral(p)
	}
	if t.Run != nil {
		return t.Run(ctx)
	}
	return nil
}
