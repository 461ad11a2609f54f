// Package freshness implements an Ocelot-style runtime ("Automatically
// Enforcing Fresh and Consistent Inputs in Intermittent Systems", Surbatovich
// et al., PLDI'21): instead of relying on spec authors to write the right
// freshness monitor (ARTEMIS) or restarting the path forever when a bound is
// missed (Mayfly), the runtime *enforces* input freshness automatically.
//
// Every sensor input is timestamped in a CommitGroup-guarded NVM region that
// commits atomically with the task outputs and the control-state advance, so
// a power failure can never separate data from its timestamp. Before a
// consuming task runs — in particular before a *re-execution* after a
// reboot, when the charging delay may have aged every input — the runtime
// checks each of the task's input bounds and re-collects stale inputs by
// re-executing the producing task, committing the fresh sample and its new
// timestamp as an atomic boundary of its own. The consumer then proceeds
// with provably fresh data: where Mayfly's restart-forever adaptation
// livelocks once the charging delay exceeds the MITD (Figure 12), this
// runtime completes with zero freshness violations, at the cost of the extra
// collections.
//
// Enforcement assumes producers are re-collection-safe: re-executing a
// producer must re-sample its input, not accumulate side effects (true of
// pure sampling tasks like the benchmark's accelerometer read; an
// accumulator like bodyTemp should not be given a bound unless its
// re-execution is acceptable). Bounds are inferred from the task graph by
// InferBounds, with declared bounds taking precedence.
package freshness

import (
	"errors"
	"fmt"
	"sort"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// Owner is the NVM accounting label for the runtime (Table 2).
const Owner = "ocelot"

// Synthetic bookkeeping cost per scheduling step: slightly above Mayfly's
// 260 (the loop additionally ages every bound of the dispatched task).
const checkCycles = 270

// maxSteps bounds scheduling-loop iterations per application run, a guard
// against livelock.
const maxSteps = 1_000_000

// Bound is one input-freshness requirement: when Consumer starts,
// Producer's data must be at most Age old.
type Bound struct {
	// Producer is the sensor-bearing task whose output is timestamped.
	Producer string
	// Consumer is the task guarded by the bound.
	Consumer string
	// Age is the maximum input age at consumption.
	Age simclock.Duration
	// Path restricts the bound to one path (0 = all paths with Consumer).
	Path int
}

// Config assembles the runtime.
type Config struct {
	MCU    *device.MCU
	Graph  *task.Graph
	Store  *task.Store
	Bounds []Bound
	Rounds int
	// Telemetry, when non-nil, receives inputStale/reCollect events and
	// commit-flip counts.
	Telemetry *telemetry.Tracer
}

// Stats counts enforcement decisions.
type Stats struct {
	TaskRuns int
	// StaleDetected counts bound checks that found a stale (or
	// never-collected) input at consumption time.
	StaleDetected int
	// ReCollections counts producer re-executions performed to refresh a
	// stale input. Every detection is followed by exactly one
	// re-collection, so the two counters agree on a completed run.
	ReCollections int
	// Violations counts consumers that ran on stale inputs — zero by
	// construction, reported so runtime comparisons (Mayfly's
	// FreshnessFailures) have a like-for-like column.
	Violations int
}

// Runtime is the input-freshness-enforcing runtime.
type Runtime struct {
	cfg Config
	// ctl holds nothing but the cursor, laid out like Mayfly's.
	ctl    *nvm.Committed
	cur    task.Cursor
	stamps *nvm.Committed
	slot   map[string]int // producer -> stamp offset in stamps
	init   *nvm.Var[bool]
	group  *nvm.CommitGroup
	stats  Stats
	// ctx is the reusable task execution context (task bodies never retain
	// it past Execute).
	ctx task.Ctx
}

// New assembles the runtime, allocating persistent state. Bounds are
// validated against the graph.
func New(cfg Config) (*Runtime, error) {
	if cfg.MCU == nil || cfg.Graph == nil || cfg.Store == nil {
		return nil, errors.New("ocelot: Config needs MCU, Graph, and Store")
	}
	producers := map[string]bool{}
	for _, b := range cfg.Bounds {
		if cfg.Graph.Task(b.Consumer) == nil {
			return nil, fmt.Errorf("ocelot: bound on unknown consumer %q", b.Consumer)
		}
		if b.Producer == "" || cfg.Graph.Task(b.Producer) == nil {
			return nil, fmt.Errorf("ocelot: bound on %q has unknown producer %q", b.Consumer, b.Producer)
		}
		if b.Age <= 0 {
			return nil, fmt.Errorf("ocelot: bound %s<-%s needs a positive age", b.Consumer, b.Producer)
		}
		if b.Path != 0 && cfg.Graph.PathByID(b.Path) == nil {
			return nil, fmt.Errorf("ocelot: bound on %q names unknown path %d", b.Consumer, b.Path)
		}
		producers[b.Producer] = true
	}
	mem := cfg.MCU.Mem
	group, err := nvm.NewCommitGroup(mem, Owner, "boundary")
	if err != nil {
		return nil, err
	}
	ctl, err := nvm.AllocCommitted(mem, Owner, "control", task.CursorBytes)
	if err != nil {
		return nil, err
	}
	// One 8-byte timestamp slot per bounded producer, in a committed region
	// of its own so the stamp becomes durable in the same selector flip as
	// the sample it describes.
	names := make([]string, 0, len(producers))
	for n := range producers {
		names = append(names, n)
	}
	sort.Strings(names)
	slot := make(map[string]int, len(names))
	for i, n := range names {
		slot[n] = i * 8
	}
	size := len(names) * 8
	if size == 0 {
		size = 8 // keep the region allocatable with no bounds configured
	}
	stamps, err := nvm.AllocCommitted(mem, Owner, "stamps", size)
	if err != nil {
		return nil, err
	}
	initDone, err := nvm.AllocVar[bool](mem, Owner, "initDone")
	if err != nil {
		return nil, err
	}
	ctl.Join(group)
	stamps.Join(group)
	cfg.Store.Join(group)
	if cfg.Telemetry.Enabled() {
		group.SetObserver(cfg.Telemetry.CommitFlip)
	}
	return &Runtime{
		cfg: cfg, ctl: ctl, stamps: stamps, slot: slot, init: initDone, group: group,
		cur: task.NewCursor(ctl, cfg.Graph, cfg.Rounds, task.Packed),
		ctx: task.Ctx{MCU: cfg.MCU, Store: cfg.Store},
	}, nil
}

// Stats returns the enforcement counters.
func (r *Runtime) Stats() Stats { return r.stats }

// SetStats replaces the enforcement counters. The counters live in host
// memory, so a run resumed from a crash state takes them from it.
func (r *Runtime) SetStats(s Stats) { r.stats = s }

// Bounds returns the enforced bound set.
func (r *Runtime) Bounds() []Bound { return append([]Bound(nil), r.cfg.Bounds...) }

// Cursor returns the runtime's persistent position in the task graph.
func (r *Runtime) Cursor() *task.Cursor { return &r.cur }

// Boot is the runtime entry point, re-invoked on every power-up.
func (r *Runtime) Boot() error {
	mcu := r.cfg.MCU
	mcu.Enter(device.CompRuntime)
	defer mcu.Leave()

	if !r.init.Get() {
		r.cur.Reset()
		r.ctl.Commit()
		r.init.Set(true)
	}
	r.ctl.Reopen()
	r.stamps.Reopen()
	r.cfg.Store.Rollback()
	if err := r.cur.Check(); err != nil {
		return err
	}

	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return task.ErrStuck
		}
		if r.cur.Done() {
			return nil
		}
		mcu.Exec(checkCycles)
		t := r.cur.Task()
		if err := r.enforce(t, r.cur.Path().ID); err != nil {
			return err
		}
		if err := r.ctx.Run(t); err != nil {
			return err
		}
		r.stats.TaskRuns++
		if _, ok := r.slot[t.Name]; ok {
			r.stamp(t.Name)
		}
		// The finished task's outputs, its stamp and the cursor move commit
		// in one selector flip. Unlike Mayfly and ARTEMIS, a finished walk
		// also clears the task index.
		if !r.cur.NextTask() {
			r.cur.NextPath()
		}
		if r.cur.Done() {
			r.cur.Rewind()
		}
		r.ctl.Commit()
	}
}

// enforce ages every bound guarding t and re-collects stale inputs before
// the consumer runs: the Ocelot move that replaces Mayfly's restart-forever
// adaptation. Each re-collection commits as an atomic boundary of its own
// (fresh sample + new timestamp in one selector flip), so a power failure
// during enforcement re-enforces from a consistent state.
func (r *Runtime) enforce(t *task.Task, pathID int) error {
	now := r.cfg.MCU.Now()
	for _, b := range r.cfg.Bounds {
		if b.Consumer != t.Name || (b.Path != 0 && b.Path != pathID) {
			continue
		}
		ts := int64(r.stamps.ReadUint64(r.slot[b.Producer]))
		if ts != 0 && now.Sub(simclock.Time(ts)) <= b.Age {
			continue
		}
		age := int64(-1) // never collected
		if ts != 0 {
			age = int64(now.Sub(simclock.Time(ts)))
		}
		r.stats.StaleDetected++
		r.cfg.Telemetry.InputStale(b.Producer, t.Name, age, now)
		p := r.cfg.Graph.Task(b.Producer)
		if err := r.ctx.Run(p); err != nil {
			return err
		}
		r.stamp(p.Name)
		r.ctl.Commit() // group-wide: sample + stamp durable in one flip
		r.stats.ReCollections++
		r.cfg.Telemetry.ReCollect(b.Producer, t.Name, r.cfg.MCU.Now())
		now = r.cfg.MCU.Now()
	}
	return nil
}

// stamp stages the producer's collection timestamp; it becomes durable at
// the next group commit, atomically with the sample it describes.
func (r *Runtime) stamp(name string) {
	r.stamps.WriteUint64(r.slot[name], uint64(int64(r.cfg.MCU.Now())))
}

// InferBounds derives the bound set from the task graph: every
// sensor-bearing task (declared peripherals other than the radio) is an
// input producer, and the final task of each path it feeds is the
// consumer where its data leaves the device. Declared bounds take
// precedence over inference for their (producer, consumer) pair; remaining
// inferred pairs get the default age, or no bound at all when def <= 0 —
// so with no default configured, exactly the declared set is enforced.
func InferBounds(g *task.Graph, declared []Bound, def simclock.Duration) []Bound {
	out := append([]Bound(nil), declared...)
	have := map[string]bool{}
	for _, b := range declared {
		have[b.Producer+"\x00"+b.Consumer] = true
	}
	for _, p := range g.Paths {
		last := p.Tasks[len(p.Tasks)-1]
		for _, t := range p.Tasks {
			if t == last || !senses(t) {
				continue
			}
			key := t.Name + "\x00" + last.Name
			if have[key] {
				continue
			}
			have[key] = true
			if def <= 0 {
				continue
			}
			out = append(out, Bound{Producer: t.Name, Consumer: last.Name, Age: def, Path: p.ID})
		}
	}
	return out
}

// senses reports whether t collects a sensor input: any declared
// peripheral that is not the radio.
func senses(t *task.Task) bool {
	for _, p := range t.Peripherals {
		if p != "ble" && p != "radio" {
			return true
		}
	}
	return false
}

// HealthBounds is the declared bound set for the health benchmark: the
// Figure-5 MITD the ARTEMIS spec authors wrote, as an enforced bound —
// accelerometer data consumed by send on path 2 must be at most 5 minutes
// old. (bodyTemp deliberately gets no bound: its body accumulates samples,
// so it is not re-collection-safe.)
func HealthBounds() []Bound {
	return []Bound{{Producer: "accel", Consumer: "send", Age: 5 * simclock.Minute, Path: 2}}
}
