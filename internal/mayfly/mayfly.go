// Package mayfly reimplements the evaluation baseline: a Mayfly-style
// task-based intermittent runtime (Hester et al., SenSys'17) in which
// property checking is fused into the runtime's main loop (the Figure 2(b)
// architecture the paper argues against).
//
// Mayfly supports exactly two properties — data freshness between tasks
// (the MITD of §5.1.1) and data-collection counts — and exactly one
// response: restart the task graph path and try again. It has no maxTries
// and no maxAttempt, so when a charging delay makes a freshness constraint
// unsatisfiable it re-executes the producing task forever (§5.2): the
// non-termination Figure 12 shows for charging times above the MITD.
//
// Structurally this package demonstrates problems P1–P3: constraints are
// fields of the runtime itself, their checking is interleaved with task
// dispatch, and adding a property kind means editing this loop. The
// footprint consequence shows in Table 2 — everything lives in one runtime
// whose persistent state (per-task end times, per-edge collection counters)
// makes it larger than the decoupled ARTEMIS runtime.
package mayfly

import (
	"errors"
	"fmt"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
)

// Owner is the NVM accounting label for the Mayfly runtime (Table 2).
const Owner = "mayfly"

// Synthetic bookkeeping cost per scheduling step, slightly below ARTEMIS's
// (no separate monitor dispatch), matching Figure 15's relative overheads.
const checkCycles = 260

// Constraint attaches freshness/collection requirements to a task.
// Zero-valued fields are unchecked.
type Constraint struct {
	// Task is the consuming task the constraint guards.
	Task string
	// DpTask is the producing task the data comes from.
	DpTask string
	// MITD is the maximum age of DpTask's data when Task starts.
	MITD simclock.Duration
	// Collect is the number of DpTask completions Task requires.
	Collect int64
	// Path restricts the check to one path (0 = all paths with the task).
	Path int
}

// Config assembles a Mayfly runtime.
type Config struct {
	MCU         *device.MCU
	Graph       *task.Graph
	Store       *task.Store
	Constraints []Constraint
	Rounds      int
	MaxSteps    int
}

// Stats counts runtime decisions.
type Stats struct {
	TaskRuns     int
	PathRestarts int
	// FreshnessFailures counts dispatches blocked by a stale input (an
	// unsatisfied MITD whose data timestamp is too old). Each one triggers
	// a path restart; under a charging delay beyond the MITD the counter
	// grows without bound — the Figure-12 livelock, and the like-for-like
	// column against Ocelot's enforced zero.
	FreshnessFailures int
}

// Runtime is the coupled Mayfly-style runtime.
type Runtime struct {
	cfg Config
	// ctl holds nothing but the cursor; Mayfly commits it apart from the
	// store, after the task's outputs.
	ctl   *nvm.Committed
	cur   task.Cursor
	init  *nvm.Var[bool]
	stats Stats
	// ctx is the reusable task execution context (task bodies never retain
	// it past Execute).
	ctx task.Ctx

	// endTime persists each task's last completion time (freshness source).
	endTime map[string]*nvm.Var[int64]
	// expiry persists each task's data-expiration metadata. Mayfly's
	// temporal data model attaches lifetime information to every task's
	// output whether or not a consumer constrains it, which is where much
	// of its runtime FRAM footprint comes from (Table 2).
	expiry map[string]*nvm.Var[int64]
	// edgeTime persists the data timestamp of every task-to-task edge of
	// the graph — Mayfly timestamps all flowing data.
	edgeTime map[string]*nvm.Var[int64]
	// collected persists per-(task,dpTask) collection counters.
	collected map[string]*nvm.Var[int64]
	// outEdges maps each task to the edge keys it stamps on completion.
	outEdges map[string][]string
}

// New assembles the runtime, allocating persistent state. Constraints are
// validated against the graph.
func New(cfg Config) (*Runtime, error) {
	if cfg.MCU == nil || cfg.Graph == nil || cfg.Store == nil {
		return nil, errors.New("mayfly: Config needs MCU, Graph, and Store")
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 1_000_000
	}
	for _, c := range cfg.Constraints {
		if cfg.Graph.Task(c.Task) == nil {
			return nil, fmt.Errorf("mayfly: constraint on unknown task %q", c.Task)
		}
		if c.DpTask == "" || cfg.Graph.Task(c.DpTask) == nil {
			return nil, fmt.Errorf("mayfly: constraint on %q has unknown dpTask %q", c.Task, c.DpTask)
		}
		if c.MITD < 0 || c.Collect < 0 {
			return nil, fmt.Errorf("mayfly: constraint on %q has negative bounds", c.Task)
		}
		if c.Path != 0 && cfg.Graph.PathByID(c.Path) == nil {
			return nil, fmt.Errorf("mayfly: constraint on %q names unknown path %d", c.Task, c.Path)
		}
	}
	mem := cfg.MCU.Mem
	ctl, err := nvm.AllocCommitted(mem, Owner, "control", task.CursorBytes)
	if err != nil {
		return nil, err
	}
	initDone, err := nvm.AllocVar[bool](mem, Owner, "initDone")
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:       cfg,
		ctl:       ctl,
		cur:       task.NewCursor(ctl, cfg.Graph, cfg.Rounds, task.Packed),
		init:      initDone,
		ctx:       task.Ctx{MCU: cfg.MCU, Store: cfg.Store},
		endTime:   map[string]*nvm.Var[int64]{},
		expiry:    map[string]*nvm.Var[int64]{},
		edgeTime:  map[string]*nvm.Var[int64]{},
		collected: map[string]*nvm.Var[int64]{},
		outEdges:  map[string][]string{},
	}
	// The coupled design pays for its generality in resident runtime state
	// (problem P3): the temporal data model allocates completion-time and
	// expiration metadata for EVERY task and a timestamp for EVERY edge of
	// the graph, whether or not any constraint uses them.
	for _, name := range cfg.Graph.TaskNames() {
		et, err := nvm.AllocVar[int64](mem, Owner, "endTime."+name)
		if err != nil {
			return nil, err
		}
		r.endTime[name] = et
		ex, err := nvm.AllocVar[int64](mem, Owner, "expiry."+name)
		if err != nil {
			return nil, err
		}
		r.expiry[name] = ex
	}
	for _, p := range cfg.Graph.Paths {
		for i := 0; i+1 < len(p.Tasks); i++ {
			from, to := p.Tasks[i].Name, p.Tasks[i+1].Name
			key := edgeKey(to, from)
			if _, ok := r.edgeTime[key]; !ok {
				v, err := nvm.AllocVar[int64](mem, Owner, "edgeTime."+key)
				if err != nil {
					return nil, err
				}
				r.edgeTime[key] = v
				r.outEdges[from] = append(r.outEdges[from], key)
			}
		}
	}
	// One collection counter per constraint edge.
	for _, c := range cfg.Constraints {
		key := edgeKey(c.Task, c.DpTask)
		if _, ok := r.collected[key]; !ok {
			v, err := nvm.AllocVar[int64](mem, Owner, "collected."+key)
			if err != nil {
				return nil, err
			}
			r.collected[key] = v
		}
		if c.MITD > 0 {
			r.expiry[c.DpTask].Set(int64(c.MITD))
		}
	}
	return r, nil
}

func edgeKey(t, dp string) string { return t + "<-" + dp }

// Stats returns the decision counters.
func (r *Runtime) Stats() Stats { return r.stats }

// SetStats replaces the decision counters. The counters live in host
// memory, so a run resumed from a crash state takes them from it.
func (r *Runtime) SetStats(s Stats) { r.stats = s }

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
	r.cfg.Store.Rollback()
	if err := r.cur.Check(); err != nil {
		return err
	}

	// The Figure 2(b) main loop: while(1) { t = next(); if
	// props_satisfied(t) run(t) else adapt(); } with property checks and
	// adaptation hardcoded inline.
	for steps := 0; ; steps++ {
		if steps > r.cfg.MaxSteps {
			return task.ErrStuck
		}
		if r.cur.Done() {
			return nil
		}
		mcu.Exec(checkCycles)
		path, t := r.cur.Path(), r.cur.Task()

		if !r.propsSatisfied(t, path.ID) {
			// The only adaptation Mayfly knows: restart the path. No
			// attempt bound, no alternative action — the source of the
			// non-termination in Figure 12.
			r.stats.PathRestarts++
			r.cur.Rewind()
			r.ctl.Commit()
			continue
		}
		if err := r.runTask(t); err != nil {
			return err
		}
		if !r.cur.NextTask() {
			r.cur.NextPath()
		}
		r.ctl.Commit()
	}
}

// propsSatisfied checks the hardcoded property kinds for one task.
func (r *Runtime) propsSatisfied(t *task.Task, pathID int) bool {
	now := r.cfg.MCU.Now()
	for _, c := range r.cfg.Constraints {
		if c.Task != t.Name {
			continue
		}
		if c.Path != 0 && c.Path != pathID {
			continue
		}
		if c.MITD > 0 {
			end := r.endTime[c.DpTask].Get()
			if end == 0 || now.Sub(simclock.Time(end)) > c.MITD {
				r.stats.FreshnessFailures++
				return false
			}
		}
		if c.Collect > 0 && r.collected[edgeKey(t.Name, c.DpTask)].Get() < c.Collect {
			return false
		}
	}
	return true
}

// runTask executes a task atomically and updates the coupled bookkeeping.
func (r *Runtime) runTask(t *task.Task) error {
	if err := r.ctx.Run(t); err != nil {
		return err
	}
	mcu := r.cfg.MCU
	r.stats.TaskRuns++
	r.cfg.Store.Commit()
	// Freshness and collection bookkeeping, fused into the runtime. The
	// producer timestamp, its outgoing edge timestamps, and counters update
	// on completion; consumers consume their counters when they complete.
	if v, ok := r.endTime[t.Name]; ok {
		v.Set(int64(mcu.Now()))
	}
	for _, key := range r.outEdges[t.Name] {
		r.edgeTime[key].Set(int64(mcu.Now()))
	}
	for _, c := range r.cfg.Constraints {
		if c.DpTask == t.Name && c.Collect > 0 {
			v := r.collected[edgeKey(c.Task, t.Name)]
			v.Set(v.Get() + 1)
		}
		if c.Task == t.Name && c.Collect > 0 {
			r.collected[edgeKey(t.Name, c.DpTask)].Set(0)
		}
	}
	return nil
}

// HealthConstraints returns the Mayfly version of the benchmark (§5.1.1):
// only the collect and MITD properties of Figure 5, since Mayfly supports
// neither maxTries nor maxAttempt.
func HealthConstraints() []Constraint {
	return []Constraint{
		{Task: "send", DpTask: "accel", MITD: 5 * simclock.Minute, Path: 2},
		{Task: "send", DpTask: "accel", Collect: 1, Path: 2},
		{Task: "send", DpTask: "micSense", Collect: 1, Path: 3},
		{Task: "calcAvg", DpTask: "bodyTemp", Collect: 10},
	}
}
