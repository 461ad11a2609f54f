// Package correctness derives runtime-verification oracles from the formal
// memory-consistency definitions for intermittent computing (Surbatovich et
// al., "Towards a Formal Foundation of Intermittent Computing"): an
// intermittent execution is correct when it is equivalent to SOME
// continuously-powered execution, which the formalism reduces to conditions
// over each task's write set and read set across re-executions.
//
// The package instruments a task graph so that every task execution becomes
// a tracked *segment* with its persistent read set, write set, and input
// (peripheral) sequence, collected through nvm.Memory's access observer.
// Three checks fall out of the formal conditions:
//
//   - WAR hazards (static report): a task that reads a raw persistent
//     location before writing it will, when re-executed after a power
//     failure, read its own previous write — the classic write-after-read
//     hazard. Hazards() reports every such location. Double-buffered
//     (Committed) regions are excluded by construction: their staging lives
//     in volatile SRAM and their commit is the WAR-protection mechanism, so
//     only raw Region/Var traffic can be hazardous.
//   - Re-execution isolation (the "memory" oracle): pairing each
//     crash-interrupted segment with its post-reboot re-execution, the
//     re-execution's first read of a location must never observe a value
//     the interrupted attempt itself wrote there. ReExecutionViolations
//     checks this dynamically at an injected crash point.
//   - Input re-collection (the "inputs" oracle): sensor inputs consumed by
//     an interrupted execution must be re-collected by the re-execution,
//     not replayed from persistent state — the non-idempotent-input
//     condition. InputViolations checks the re-execution re-performed the
//     interrupted attempt's peripheral sequence.
//
// The reachability half of the formal definition — every committed
// post-reboot state must be one a continuously-powered execution can reach
// — needs a golden continuous run to compare against, so it lives with the
// crash explorer (chaos.NewFormalExplorer, which golden-runs any example
// case) on top of the ImageSet helper here.
package correctness

import (
	"fmt"
	"sort"
	"strings"

	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/task"
)

// Oracle names for chaos PostOracles tallies.
const (
	// OracleMemory covers the memory-consistency conditions: re-execution
	// isolation plus committed-state reachability.
	OracleMemory = "memory"
	// OracleInputs covers the input re-collection condition.
	OracleInputs = "inputs"
)

// Segment is one tracked task execution: the persistent locations it read
// before writing, the locations it wrote, and the inputs it collected.
type Segment struct {
	Task string
	// Boot is the reboot ordinal the segment ran under (0 = first boot).
	Boot int
	// Completed is false when a power failure interrupted the execution.
	Completed bool
	// FirstRead maps absolute offsets to the first value read there before
	// this segment wrote the location (its exposed read set).
	FirstRead map[int]byte
	// Writes maps absolute offsets to the last value this segment wrote
	// (its write set).
	Writes map[int]byte
	// Inputs is the ordered peripheral sequence the segment performed.
	Inputs []string

	war map[int]bool // read-before-write locations subsequently written
}

// Hazard is one write-after-read location, attributed to its allocation.
type Hazard struct {
	Task  string
	Owner string
	Name  string // allocation (variable) name
	Off   int    // absolute FRAM offset
}

func (h Hazard) String() string {
	return fmt.Sprintf("task %s read-then-wrote %s/%s (offset %d)", h.Task, h.Owner, h.Name, h.Off)
}

// Violation is one formal-condition failure found by the dynamic checks.
type Violation struct {
	Oracle string
	Detail string
}

// Tracker builds per-task read/write sets over one memory by observing its
// raw access stream. One tracker follows one deployment across reboots;
// crash explorers create a fresh tracker per crash point.
type Tracker struct {
	mem  *nvm.Memory
	boot int
	cur  *Segment
	segs []*Segment

	// raw is the snapshot of unprotected allocations (everything except
	// the .a/.b/.sel buffers of double-buffered regions), sorted by offset.
	// Refreshed at segment open: Reboot resets the allocator and boot code
	// re-runs the identical allocation sequence.
	raw []nvm.Allocation
}

// NewTracker attaches a tracker to mem's access observer. The observer
// slot is single: attaching a tracker displaces any previous observer.
func NewTracker(mem *nvm.Memory) *Tracker {
	tr := &Tracker{mem: mem}
	mem.SetAccessObserver(tr.observe)
	return tr
}

// Reboot informs the tracker of a power-failure recovery: an open segment
// stays interrupted, and later segments carry the next boot ordinal.
func (tr *Tracker) Reboot() {
	tr.boot++
	tr.cur = nil
}

// Segments returns the tracked executions in order.
func (tr *Tracker) Segments() []*Segment { return tr.segs }

func (tr *Tracker) open(name string) {
	tr.refresh()
	s := &Segment{
		Task:      name,
		Boot:      tr.boot,
		FirstRead: map[int]byte{},
		Writes:    map[int]byte{},
		war:       map[int]bool{},
	}
	tr.segs = append(tr.segs, s)
	tr.cur = s
}

// Input records one collected sensor input in the open segment. Wrapped
// tasks report their declared peripherals automatically; bodies that
// sample inside Run (through MCU.Peripheral) call this alongside.
func (tr *Tracker) Input(name string) {
	if tr.cur != nil {
		tr.cur.Inputs = append(tr.cur.Inputs, name)
	}
}

func (tr *Tracker) close() {
	if tr.cur != nil {
		tr.cur.Completed = true
		tr.cur = nil
	}
}

// refresh re-snapshots the unprotected allocations. Names ending in .a,
// .b, or .sel are the buffers and selectors of Committed regions and
// commit groups — the WAR-protected class the formal conditions exempt.
func (tr *Tracker) refresh() {
	tr.raw = tr.raw[:0]
	for _, a := range tr.mem.Allocations() {
		if strings.HasSuffix(a.Name, ".a") || strings.HasSuffix(a.Name, ".b") || strings.HasSuffix(a.Name, ".sel") {
			continue
		}
		tr.raw = append(tr.raw, a)
	}
}

// rawAt resolves off to an unprotected allocation, or nil. Region bounds
// checking guarantees one access never spans allocations, so resolving the
// first byte covers the whole access.
func (tr *Tracker) rawAt(off int) *nvm.Allocation {
	lo, hi := 0, len(tr.raw)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		a := &tr.raw[mid]
		switch {
		case off < a.Off:
			hi = mid - 1
		case off >= a.Off+a.Size:
			lo = mid + 1
		default:
			return a
		}
	}
	return nil
}

// observe is the nvm access hook: it folds raw traffic inside an open
// segment into that segment's read and write sets. Host-side only — it
// never touches the memory, so it perturbs neither stats nor energy.
func (tr *Tracker) observe(op nvm.AccessOp, off int, p []byte) {
	s := tr.cur
	if s == nil || tr.rawAt(off) == nil {
		return
	}
	switch op {
	case nvm.OpRead:
		for i, b := range p {
			a := off + i
			if _, written := s.Writes[a]; written {
				continue // reading its own write: not part of the exposed read set
			}
			if _, seen := s.FirstRead[a]; !seen {
				s.FirstRead[a] = b
			}
		}
	case nvm.OpWrite:
		for i, b := range p {
			a := off + i
			if _, read := s.FirstRead[a]; read {
				s.war[a] = true
			}
			s.Writes[a] = b
		}
	}
}

// Hazards reports every write-after-read location any tracked segment
// exhibited, attributed to its allocation and deduplicated per (task,
// allocation), sorted for deterministic output. A non-empty result means a
// power failure inside that task can make its re-execution observe its own
// partial effects — exactly the class double-buffered commits exist to
// prevent.
func (tr *Tracker) Hazards() []Hazard {
	tr.refresh()
	seen := map[string]Hazard{}
	for _, s := range tr.segs {
		for off := range s.war {
			h := Hazard{Task: s.Task, Owner: "?", Name: "?", Off: off}
			if a := tr.rawAt(off); a != nil {
				h.Owner, h.Name = a.Owner, a.Name
			}
			key := h.Task + "\x00" + h.Owner + "\x00" + h.Name
			if prev, ok := seen[key]; !ok || off < prev.Off {
				h.Off = off
				if ok && prev.Off < off {
					h.Off = prev.Off
				}
				seen[key] = h
			}
		}
	}
	out := make([]Hazard, 0, len(seen))
	for _, h := range seen {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Off < out[j].Off
	})
	return out
}

// ReExecutionViolations applies the re-execution isolation condition: for
// every interrupted segment A with a later segment B of the same task (the
// re-execution after the reboot), B's first read of a location must not
// observe the value A wrote there. A violation is reported when B read
// exactly what A last wrote and A demonstrably changed the location (A's
// own first read differs, or A wrote blind).
func (tr *Tracker) ReExecutionViolations() []Violation {
	tr.refresh()
	var out []Violation
	for i, a := range tr.segs {
		if a.Completed || len(a.Writes) == 0 {
			continue
		}
		b := tr.reExecution(i)
		if b == nil {
			continue
		}
		offs := make([]int, 0, len(a.Writes))
		for off := range a.Writes {
			offs = append(offs, off)
		}
		sort.Ints(offs)
		for _, off := range offs {
			wrote := a.Writes[off]
			got, read := b.FirstRead[off]
			if !read || got != wrote {
				continue
			}
			if before, ok := a.FirstRead[off]; ok && before == wrote {
				continue // A wrote back the value it found: nothing exposed
			}
			detail := fmt.Sprintf("re-execution of %s (boot %d) observed its own pre-crash write", a.Task, b.Boot)
			if alloc := tr.rawAt(off); alloc != nil {
				detail += fmt.Sprintf(" to %s/%s", alloc.Owner, alloc.Name)
			}
			out = append(out, Violation{Oracle: OracleMemory,
				Detail: fmt.Sprintf("%s (offset %d, value %#x)", detail, off, wrote)})
			break // one violation per pair keeps reports readable
		}
	}
	return out
}

// InputViolations applies the input re-collection condition: the
// re-execution of an interrupted segment must re-perform the inputs the
// interrupted attempt collected (as a prefix of its own input sequence,
// since the attempt may have been cut short). A completed re-execution
// with a shorter or different input sequence consumed persisted sensor
// data instead of re-sampling — stale inputs the formalism forbids.
func (tr *Tracker) InputViolations() []Violation {
	var out []Violation
	for i, a := range tr.segs {
		if a.Completed || len(a.Inputs) == 0 {
			continue
		}
		b := tr.reExecution(i)
		if b == nil || !b.Completed {
			continue
		}
		if !isPrefix(a.Inputs, b.Inputs) {
			out = append(out, Violation{Oracle: OracleInputs,
				Detail: fmt.Sprintf("re-execution of %s collected inputs %v, interrupted attempt had collected %v — stale inputs replayed",
					a.Task, b.Inputs, a.Inputs)})
		}
	}
	return out
}

// reExecution finds the first segment after index i that re-runs the same
// task on a later boot.
func (tr *Tracker) reExecution(i int) *Segment {
	a := tr.segs[i]
	for _, b := range tr.segs[i+1:] {
		if b.Task == a.Task && b.Boot > a.Boot {
			return b
		}
	}
	return nil
}

func isPrefix(pre, seq []string) bool {
	if len(pre) > len(seq) {
		return false
	}
	for i, s := range pre {
		if seq[i] != s {
			return false
		}
	}
	return true
}

// InstrumentGraph returns a copy of g whose tasks report their executions
// to the tracker: each copy opens a segment, performs the original task's
// declared cycles and peripherals inside it (recording each peripheral as
// a collected input), runs the original body, and closes the segment only
// on normal return — a power-failure panic leaves it interrupted. Merged
// tasks (one *Task on several paths) stay merged. The copies' declared
// Peripherals move inside Run, so static peripheral-cost analyses (e.g.
// minEnergy inference) do not see them; instrumented graphs are for
// verification runs, not for analysis.
func (tr *Tracker) InstrumentGraph(g *task.Graph) (*task.Graph, error) {
	clones := map[*task.Task]*task.Task{}
	paths := make([]*task.Path, 0, len(g.Paths))
	for _, p := range g.Paths {
		np := &task.Path{ID: p.ID, Tasks: make([]*task.Task, 0, len(p.Tasks))}
		for _, t := range p.Tasks {
			ct, ok := clones[t]
			if !ok {
				ct = tr.wrap(t)
				clones[t] = ct
			}
			np.Tasks = append(np.Tasks, ct)
		}
		paths = append(paths, np)
	}
	return task.NewGraph(paths...)
}

// wrap copies one task with a tracking body. Cycles stay declared (they
// never touch NVM, so the segment does not need them); peripherals and the
// body execute inside the segment.
func (tr *Tracker) wrap(orig *task.Task) *task.Task {
	return &task.Task{
		Name:    orig.Name,
		Cycles:  orig.Cycles,
		DepData: orig.DepData,
		Run: func(c *task.Ctx) error {
			tr.open(orig.Name)
			for _, p := range orig.Peripherals {
				tr.Input(p)
				c.MCU.Peripheral(p)
			}
			if orig.Run != nil {
				if err := orig.Run(c); err != nil {
					return err
				}
			}
			tr.close()
			return nil
		},
	}
}

// FormatHazards renders a WAR report for CLI output: one line per hazard,
// or a clean verdict.
func FormatHazards(hazards []Hazard) string {
	if len(hazards) == 0 {
		return "war-report: clean — no task reads a raw persistent location before writing it\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "war-report: %d write-after-read hazard(s)\n", len(hazards))
	for _, h := range hazards {
		fmt.Fprintf(&b, "  HAZARD %s\n", h)
	}
	return b.String()
}

// ImageSet is a set of committed persistent images, the golden states a
// continuously-powered execution reached. The reachability oracle asks
// whether a crashed run's committed states are members.
type ImageSet struct {
	set map[string]bool
}

// NewImageSet builds an empty set for images of the given size. The
// all-zero initial image is a member: a crash before the first commit
// recovers to it.
func NewImageSet(size int) *ImageSet {
	s := &ImageSet{set: map[string]bool{}}
	s.Add(make([]byte, size))
	return s
}

// Add records one committed image as reachable.
func (s *ImageSet) Add(img []byte) { s.set[string(img)] = true }

// Contains reports whether img is a recorded image.
func (s *ImageSet) Contains(img []byte) bool { return s.set[string(img)] }

// Len returns the number of distinct images.
func (s *ImageSet) Len() int { return len(s.set) }
