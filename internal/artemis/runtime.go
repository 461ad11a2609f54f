// Package artemis is the ARTEMIS intermittent computing runtime (§3.4,
// §4.1): it executes a task graph path by path in a power-failure-resilient
// manner, feeds startTask/endTask events to the application-specific
// monitors, and executes the corrective actions the monitors recommend.
//
// Crash-consistency design. All runtime control state — current path and
// task, task status, the in-flight event record, completion flags — lives in
// one two-phase-committed NVM region, so every control transition is atomic.
// The protocol is:
//
//  1. Create an event: bump the persistent sequence number, record kind,
//     timestamp, and data, mark it undelivered, commit.
//  2. Deliver it to the monitor set (idempotent per sequence number: each
//     machine commits its own configuration together with the verdict it
//     produced, so a crash mid-delivery resumes exactly where it stopped).
//  3. Apply the arbitrated decision: re-initialise path monitors if needed
//     (idempotent), stage the new control state with the event marked
//     delivered, commit.
//
// A power failure between any two points replays from step 2 with the same
// sequence number, reaching the same decision and the same final state. A
// power failure while a task runs leaves status READY with the start event
// delivered, so the next boot emits a fresh start event — which is precisely
// how monitors observe re-execution attempts (maxTries). Timestamp handling
// follows §4.1.3: the end-of-task time is committed once and never restamped
// on replay, while the start event is restamped on every re-execution and
// time-tracking machines keep the first value they saw.
package artemis

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/tinysystems/artemis-go/internal/action"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/integrity"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// Owner is the NVM accounting label for runtime state (Table 2).
const Owner = "runtime"

// Synthetic CPU costs of the runtime's own bookkeeping, charged so that the
// overhead breakdowns of Figures 14 and 15 have something to measure. The
// values approximate the paper's measured scale: per-task runtime overhead
// of a few hundred microseconds at 1 MHz.
const (
	checkTaskCycles     = 120 // checkTask bookkeeping per event
	monitorBaseCycles   = 60  // monitor dispatch entry/exit
	monitorPerMachCycle = 18  // per-machine evaluation cost
)

// Task status values stored in the control region.
const (
	statusReady    = 0
	statusFinished = 1
)

// Reprogrammer is the over-the-air reprogramming hook contract, satisfied
// by internal/ota.Manager. Declared here so the dependency arrow points
// from the OTA layer at the runtime, not the other way around.
type Reprogrammer interface {
	// BootSync reconciles persistent swap state with the host-side
	// deployment; the runtime calls it on every boot before rolling the
	// monitors back.
	BootSync(now simclock.Time)
	// AtBoundary advances pending reprogramming work at a task boundary.
	// Returned failures are routed through monitor.Decide arbitration.
	AtBoundary(now simclock.Time) []ir.Failure
}

// Config assembles a runtime.
type Config struct {
	MCU      *device.MCU
	Graph    *task.Graph
	Store    *task.Store
	Monitors monitor.Interface

	// Rounds is how many times the whole path list executes; defaults to 1.
	Rounds int

	// MaxSteps bounds main-loop iterations per application run as a guard
	// against runtime-level livelock; defaults to 1_000_000.
	MaxSteps int

	// OnDecision, when non-nil, observes every non-none arbitrated decision
	// together with the event that triggered it. Experiment harnesses use
	// it to reconstruct timelines (Figure 13).
	OnDecision func(ev monitor.Event, d monitor.Decision)

	// Extras are additional persistent structures (e.g. task.Channel) the
	// runtime commits at every task boundary and rolls back on reboot,
	// extending the store's atomicity to them.
	Extras []task.Persistent

	// Integrity, when non-nil, guards the control region with a CRC
	// committed in the same selector flip, verifies all guards at boot and
	// on the scrub schedule, and lets the runtime escalate quarantined
	// regions through the normal action pipeline.
	Integrity *integrity.Manager

	// Telemetry, when non-nil, records task lifecycle events (start/end/
	// commit), executed corrective actions, and commit-group selector
	// flips. Every emit method is a no-op on a nil tracer, so the disabled
	// path costs nothing on the task-commit hot path.
	Telemetry *telemetry.Tracer

	// OTA, when non-nil, hooks over-the-air monitor reprogramming into the
	// runtime (internal/ota.Manager): BootSync reconciles persistent swap
	// state on every boot before monitor rollback, and AtBoundary advances
	// a pending bundle transfer — and performs the atomic spec swap — at
	// task boundaries, the only points where no event is in flight and no
	// task is mid-execution.
	OTA Reprogrammer

	// WatchdogLimit, when positive, arms the forward-progress watchdog: a
	// persistent per-position consecutive-boot counter (committed in the
	// same atomic group as the control state). After more than this many
	// boots die at the same (round, path, task) position, the runtime
	// escalates a skipPath through monitor action arbitration instead of
	// boot-looping forever — the runtime-level complement to maxAttempt,
	// catching livelock the reboot budget documents as uncatchable (e.g.
	// usable energy below the task's cost).
	WatchdogLimit int
}

// Stats counts runtime decisions over the application run. They live in
// volatile memory and are rebuilt meaningless after reboots in a real
// deployment, but the simulator's Device keeps the Runtime value alive
// across simulated reboots, so experiments read accurate totals.
type Stats struct {
	Events       int
	TaskRuns     int
	TaskSkips    int
	TaskRestarts int
	PathRestarts int
	PathSkips    int
	PathComplete int
	// Recoveries counts boots that found an undelivered event in flight,
	// i.e. reboots whose recovery re-entered monitor finalisation.
	Recoveries int
	// WatchdogTrips counts forward-progress escalations: boot loops broken
	// by the consecutive-crash counter exceeding Config.WatchdogLimit.
	WatchdogTrips int
	Decisions     Decisions
}

// Decisions counts arbitrated decisions per action, indexed by
// action.Action. An array rather than a map keeps Stats a comparable value
// that copies by assignment and costs no allocation per runtime.
type Decisions [action.CompletePath + 1]int

// String renders the non-zero counts in action order, the way fmt prints
// the map this type replaced ("map[restartPath:2 skipPath:1]"), so reports
// and digests that format Stats read as before.
func (d Decisions) String() string {
	var b strings.Builder
	b.WriteString("map[")
	sep := ""
	for a, n := range d {
		if n > 0 {
			fmt.Fprintf(&b, "%s%v:%d", sep, action.Action(a), n)
			sep = " "
		}
	}
	b.WriteString("]")
	return b.String()
}

// Runtime executes one application under ARTEMIS monitoring.
type Runtime struct {
	cfg   Config
	state *controlState
	// cur is the task-graph position, in words of the control region.
	cur   task.Cursor
	init  *nvm.Var[bool]
	stats Stats
	// loose holds Extras that could not join the shared commit group and
	// therefore still need their own commit at task boundaries.
	loose []task.Persistent
	// ctx is the reusable task execution context: one per runtime rather
	// than one per task run, since task bodies never retain it past Execute
	// (the differential harness and chaos sweeps hold the dispatch path to
	// byte-identical behaviour either way).
	ctx task.Ctx
}

// Control-region word layout. The cursor's words are 0, 1, 3 and 4
// (cursorAt); the task status sits between them.
const (
	wPathIdx = iota
	wTaskIdx
	wStatus
	wRound
	wAppDone
	wCompleteMode
	wEvSeq
	wEvKind
	wEvTime
	wEvData
	wEvDelivered
	wEvEnergy
	wFinishTime
	wWatchPos   // watchdog: marker bit | round | path | task of the last boot
	wWatchCount // watchdog: consecutive boots at that position
	wWords      // count
)

// cursorAt places the task-graph cursor in the control region.
var cursorAt = task.Layout{Path: wPathIdx, Task: wTaskIdx, Round: wRound, Done: wAppDone}

// watchPosValid marks wWatchPos as holding a real position: it
// disambiguates the initial all-zero word from a legitimate boot at
// (round 0, path 0, task 0).
const watchPosValid = uint64(1) << 62

// controlState is the committed runtime control region with a staged
// volatile view.
type controlState struct {
	c *nvm.Committed
}

func (s *controlState) get(w int) uint64    { return s.c.ReadUint64(w * 8) }
func (s *controlState) set(w int, v uint64) { s.c.WriteUint64(w*8, v) }
func (s *controlState) getI(w int) int64    { return int64(s.get(w)) }
func (s *controlState) setI(w int, v int64) { s.set(w, uint64(v)) }
func (s *controlState) getB(w int) bool     { return s.get(w) != 0 }
func (s *controlState) setB(w int, v bool)  { s.set(w, b2u(v)) }
func (s *controlState) commit()             { s.c.Commit() }
func (s *controlState) rollback()           { s.c.Reopen() }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// New assembles a runtime, allocating its persistent state. Allocation
// order is deterministic, so reconstructing a Runtime over the same
// (rebooted) memory recovers the previous state.
func New(cfg Config) (*Runtime, error) {
	if cfg.MCU == nil || cfg.Graph == nil || cfg.Store == nil || cfg.Monitors == nil {
		return nil, errors.New("artemis: Config needs MCU, Graph, Store, and Monitors")
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 1_000_000
	}
	c, err := nvm.AllocCommitted(cfg.MCU.Mem, Owner, "control", wWords*8)
	if err != nil {
		return nil, err
	}
	initDone, err := nvm.AllocVar[bool](cfg.MCU.Mem, Owner, "initDone")
	if err != nil {
		return nil, err
	}
	// One shared-selector commit group couples the control region, the
	// store, and every joinable Extra: a task's outputs and the control
	// advance past it become durable in a single atomic flip, closing the
	// double-execution window that separate selectors would open at every
	// task boundary (a crash between "outputs committed" and "status
	// committed" re-runs the task against its own committed outputs).
	group, err := nvm.NewCommitGroup(cfg.MCU.Mem, Owner, "commit")
	if err != nil {
		return nil, err
	}
	c.Join(group)
	cfg.Store.Join(group)
	if cfg.Telemetry != nil {
		group.SetObserver(cfg.Telemetry.CommitFlip)
	}
	r := &Runtime{
		cfg:   cfg,
		state: &controlState{c: c},
		cur:   task.NewCursor(c, cfg.Graph, cfg.Rounds, cursorAt),
		init:  initDone,
		ctx:   task.Ctx{MCU: cfg.MCU, Store: cfg.Store},
	}
	for _, e := range cfg.Extras {
		if j, ok := e.(interface{ Join(*nvm.CommitGroup) }); ok {
			j.Join(group)
		} else {
			r.loose = append(r.loose, e)
		}
	}
	// Guard the control region last, after every member has joined, so the
	// CRC is primed over the group's final committed image.
	if cfg.Integrity != nil {
		cfg.Integrity.Protect("runtime/control", c, integrity.ClassControl, nil)
	}
	return r, nil
}

// Stats returns the decision counters accumulated so far.
func (r *Runtime) Stats() Stats { return r.stats }

// SetStats replaces the decision counters. The counters live in host
// memory, so a run resumed from a crash state takes them from it.
func (r *Runtime) SetStats(s Stats) { r.stats = s }

// Cursor returns the runtime's persistent position in the task graph.
func (r *Runtime) Cursor() *task.Cursor { return &r.cur }

// Boot is the runtime entry point, invoked by the device on every power-up
// (Figure 8's main). It performs the one-time hard reset, finalises any
// monitor processing interrupted by the last power failure, and runs the
// main loop to application completion.
func (r *Runtime) Boot() error {
	mcu := r.cfg.MCU
	mcu.Enter(device.CompRuntime)
	defer mcu.Leave()

	// Initial hard reset: exactly once in the application's life (§4.1).
	if !r.init.Get() {
		r.hardReset()
	}

	// Reboot recovery: discard staged-but-uncommitted state and let the
	// main loop re-deliver the in-flight event (monitorFinalize). OTA sync
	// runs first: if a power failure landed between the spec-swap selector
	// flip and the host-side install, the committed new deployment must be
	// in place before anything rolls monitors back or delivers to them.
	r.state.rollback()
	if r.cfg.OTA != nil {
		r.cfg.OTA.BootSync(mcu.Now())
	}
	r.cfg.Monitors.Rollback()
	r.cfg.Store.Rollback()
	for _, e := range r.cfg.Extras {
		e.Rollback()
	}
	if !r.state.getB(wEvDelivered) {
		r.stats.Recoveries++
	}

	// Verify and repair every guarded region before trusting any of it,
	// then validate the (possibly repaired) control words, then account
	// this boot against the forward-progress watchdog.
	if r.cfg.Integrity != nil {
		r.cfg.Integrity.BootVerify(mcu.Now())
		if err := r.drainQuarantine(); err != nil {
			return err
		}
	}
	if err := r.validateControl(); err != nil {
		return err
	}
	if err := r.watchdog(); err != nil {
		return err
	}

	for steps := 0; ; steps++ {
		if steps > r.cfg.MaxSteps {
			return task.ErrStuck
		}
		if r.cfg.Integrity != nil {
			r.cfg.Integrity.Tick(mcu.Now())
			if err := r.drainQuarantine(); err != nil {
				return err
			}
		}
		mcu.Exec(checkTaskCycles)
		done, err := r.step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// validateControl bounds-checks every control word an indexing operation
// trusts: the cursor's, then the task status.
func (r *Runtime) validateControl() error {
	if err := r.cur.Check(); err != nil || r.cur.Done() {
		return err
	}
	if st := r.state.getI(wStatus); st != statusReady && st != statusFinished {
		return fmt.Errorf("%w: task status %d", task.ErrCorrupt, st)
	}
	return nil
}

// watchdog accounts one boot against the forward-progress counter. The
// position and count commit in the same atomic group as the control state,
// so the counter can never disagree with the position it is counting.
func (r *Runtime) watchdog() error {
	if r.cfg.WatchdogLimit <= 0 {
		return nil
	}
	s := r.state
	if r.cur.Done() {
		return nil
	}
	round, path, ti := r.cur.Position()
	pos := watchPosValid | uint64(round)<<40 | uint64(path)<<20 | uint64(ti)
	if s.get(wWatchPos) != pos {
		// Progress since the last boot: restart the count here.
		s.set(wWatchPos, pos)
		s.set(wWatchCount, 1)
		s.commit()
		return nil
	}
	n := s.get(wWatchCount) + 1
	if n > uint64(r.cfg.WatchdogLimit) {
		return r.escalateWatchdog()
	}
	s.set(wWatchCount, n)
	s.commit()
	return nil
}

// escalateWatchdog breaks a boot loop: more than WatchdogLimit consecutive
// boots died at the same position, so the position is treated as an onFail
// event and routed through the normal monitor action arbitration — the
// same pipeline a maxAttempt violation takes — rather than retried forever.
func (r *Runtime) escalateWatchdog() error {
	s := r.state
	r.stats.WatchdogTrips++
	s.set(wWatchPos, 0)
	s.set(wWatchCount, 0)
	if s.getB(wCompleteMode) {
		// Unmonitored completion cannot take actions; end the path.
		r.finishCompleteMode()
		return nil
	}
	pathID := r.cur.Path().ID
	dec := monitor.Decide([]ir.Failure{{
		Machine: "watchdog",
		Action:  action.SkipPath,
		Path:    pathID,
	}}, pathID)
	r.stats.Decisions[dec.Action]++
	if r.cfg.OnDecision != nil {
		r.cfg.OnDecision(monitor.Event{
			Seq: s.get(wEvSeq),
			Event: ir.Event{
				Kind: ir.EvStart,
				Task: r.cur.Task().Name,
				Time: r.cfg.MCU.Now(),
				Path: pathID,
			},
		}, dec)
	}
	r.cfg.Telemetry.ActionTaken(dec.Action.String(), dec.Machine, dec.Path, r.cfg.MCU.Now())
	r.stats.PathSkips++
	r.skipPath(pathID)
	return nil
}

// drainQuarantine escalates every guard the integrity layer gave up on:
// unrecoverable control state fails the run with a typed error; anything
// else fails the current path through the normal action pipeline.
func (r *Runtime) drainQuarantine() error {
	for {
		g := r.cfg.Integrity.TakeQuarantined()
		if g == nil {
			return nil
		}
		if err := r.escalateQuarantine(g); err != nil {
			return err
		}
	}
}

func (r *Runtime) escalateQuarantine(g *integrity.Guard) error {
	if g.Class() == integrity.ClassControl {
		return fmt.Errorf("%w: guard %s quarantined with no usable shadow", task.ErrCorrupt, g.Name())
	}
	if r.cur.Done() {
		return nil
	}
	if err := r.validateControl(); err != nil {
		return err
	}
	if r.state.getB(wCompleteMode) {
		r.finishCompleteMode()
		return nil
	}
	pathID := r.cur.Path().ID
	dec := monitor.Decide([]ir.Failure{{
		Machine: "integrity:" + g.Name(),
		Action:  action.SkipPath,
		Path:    pathID,
	}}, pathID)
	r.stats.Decisions[dec.Action]++
	r.cfg.Telemetry.ActionTaken(dec.Action.String(), dec.Machine, dec.Path, r.cfg.MCU.Now())
	r.stats.PathSkips++
	r.skipPath(pathID)
	return nil
}

func (r *Runtime) hardReset() {
	r.cfg.Monitors.Reset()
	s := r.state
	for w := 0; w < wWords; w++ {
		s.set(w, 0)
	}
	s.setB(wEvDelivered, true) // no event in flight
	s.commit()
	r.init.Set(true)
}

// step executes one main-loop iteration; it reports application completion.
func (r *Runtime) step() (bool, error) {
	s := r.state
	if r.cur.Done() {
		return true, nil
	}
	// A scrub-pass repair (shadow restore, monitor reset) can rewrite the
	// stage between steps, so every step revalidates before indexing.
	if err := r.validateControl(); err != nil {
		return false, err
	}
	if s.getB(wCompleteMode) {
		return r.stepUnmonitored()
	}
	if s.getI(wStatus) == statusFinished {
		return false, r.handleEnd()
	}
	return false, r.handleStart()
}

// handleStart emits (or re-delivers) the current task's start event, applies
// the monitors' decision, and — if the properties hold — runs the task.
func (r *Runtime) handleStart() error {
	s := r.state
	if s.getB(wEvDelivered) {
		// New start event; restamped on every re-execution attempt.
		r.newEvent(ir.EvStart, r.cfg.MCU.Now(), 0)
		r.cfg.Telemetry.TaskStart(r.cur.Task().Name, r.cur.Path().ID,
			simclock.Time(s.getI(wEvTime)))
	}
	dec, err := r.deliver()
	if err != nil {
		return err
	}
	switch dec.Action {
	case action.None, action.RestartTask:
		// RestartTask on a start event is the task running (again).
		s.setB(wEvDelivered, true)
		s.commit()
		if dec.Action == action.RestartTask {
			r.stats.TaskRestarts++
		}
		return r.runCurrentTask()
	case action.SkipTask:
		r.stats.TaskSkips++
		r.advanceTask()
		return nil
	case action.RestartPath:
		r.stats.PathRestarts++
		r.restartPath(dec.Path)
		return nil
	case action.SkipPath:
		r.stats.PathSkips++
		r.skipPath(dec.Path)
		return nil
	case action.CompletePath:
		r.stats.PathComplete++
		r.enterCompleteMode()
		return nil
	}
	return fmt.Errorf("artemis: unknown action %v", dec.Action)
}

// handleEnd emits (or re-delivers) the end event of the finished task and
// applies the decision.
func (r *Runtime) handleEnd() error {
	s := r.state
	if s.getB(wEvDelivered) {
		// The finish timestamp was committed by taskFinish and is reused
		// verbatim on replays (§4.1.3).
		data := r.depData()
		r.newEvent(ir.EvEnd, simclock.Time(s.getI(wFinishTime)), data)
		r.cfg.Telemetry.TaskEnd(r.cur.Task().Name, r.cur.Path().ID,
			simclock.Time(s.getI(wFinishTime)), data)
	}
	dec, err := r.deliver()
	if err != nil {
		return err
	}
	switch dec.Action {
	case action.None, action.SkipTask:
		// SkipTask after completion has nothing left to skip.
		r.advanceTask()
		return nil
	case action.RestartTask:
		r.stats.TaskRestarts++
		s.setI(wStatus, statusReady)
		s.setB(wEvDelivered, true)
		s.commit()
		return nil
	case action.RestartPath:
		r.stats.PathRestarts++
		r.restartPath(dec.Path)
		return nil
	case action.SkipPath:
		r.stats.PathSkips++
		r.skipPath(dec.Path)
		return nil
	case action.CompletePath:
		r.stats.PathComplete++
		r.enterCompleteMode()
		return nil
	}
	return fmt.Errorf("artemis: unknown action %v", dec.Action)
}

// newEvent stages and commits a fresh event record. The supply's energy
// level is sampled once per event (the §4.2.2 energy-awareness primitive)
// and persisted with it, so replays after a power failure observe the level
// the original decision was based on.
func (r *Runtime) newEvent(kind ir.EventKind, at simclock.Time, data float64) {
	s := r.state
	s.set(wEvSeq, s.get(wEvSeq)+1)
	s.setI(wEvKind, int64(kind))
	s.setI(wEvTime, int64(at))
	s.set(wEvData, math.Float64bits(data))
	s.set(wEvEnergy, math.Float64bits(float64(r.cfg.MCU.EnergyLevel())*1e6))
	s.setB(wEvDelivered, false)
	s.commit()
}

// depData reads the finished task's dependent data value from the store.
func (r *Runtime) depData() float64 {
	t := r.cur.Task()
	if t.DepData == "" || !r.cfg.Store.Has(t.DepData) {
		return 0
	}
	return r.cfg.Store.Get(t.DepData)
}

// deliver sends the persisted in-flight event to the monitors and arbitrates
// the verdicts. Idempotent: replays after power failures converge to the
// same decision.
func (r *Runtime) deliver() (monitor.Decision, error) {
	s := r.state
	ev := monitor.Event{
		Seq: s.get(wEvSeq),
		Event: ir.Event{
			Kind:   ir.EventKind(s.getI(wEvKind)),
			Task:   r.cur.Task().Name,
			Time:   simclock.Time(s.getI(wEvTime)),
			Path:   r.cur.Path().ID,
			Data:   math.Float64frombits(s.get(wEvData)),
			Energy: math.Float64frombits(s.get(wEvEnergy)),
		},
	}
	mcu := r.cfg.MCU
	prev := mcu.SetComponent(device.CompMonitor)
	mcu.Exec(int64(monitorBaseCycles + monitorPerMachCycle*r.cfg.Monitors.HostMachines()))
	failures, err := r.cfg.Monitors.Deliver(ev)
	mcu.SetComponent(prev)
	if err != nil {
		return monitor.Decision{}, err
	}
	r.stats.Events++
	dec := monitor.Decide(failures, r.cur.Path().ID)
	if dec.Action != action.None {
		r.stats.Decisions[dec.Action]++
		if r.cfg.OnDecision != nil {
			r.cfg.OnDecision(ev, dec)
		}
		r.cfg.Telemetry.ActionTaken(dec.Action.String(), dec.Machine, dec.Path, ev.Time)
	}
	return dec, nil
}

// runCurrentTask executes the task body with app attribution and finalises
// it (taskFinish, Figure 9): commit outputs, stamp the finish time, flip the
// status — all atomic with respect to power failures.
func (r *Runtime) runCurrentTask() error {
	mcu := r.cfg.MCU
	t := r.cur.Task()
	if err := r.ctx.Run(t); err != nil {
		return err
	}
	r.stats.TaskRuns++
	// Task boundary: stage the control advance, then one shared-selector
	// commit makes outputs, channels, and control state durable together.
	// With separate commits a crash in between would re-run the task
	// against its own committed outputs, double-counting self-incrementing
	// state (tempCount += 1 twice) — the write-granularity crash explorer
	// flags exactly that window.
	for _, e := range r.loose {
		e.Commit()
	}
	s := r.state
	s.setI(wFinishTime, int64(mcu.Now()))
	s.setI(wStatus, statusFinished)
	s.setB(wEvDelivered, true)
	s.commit()
	r.cfg.Telemetry.TaskCommit(t.Name, r.cur.Path().ID, mcu.Now())
	// Task boundary: the runtime swap point. The committed control state
	// says this task is done and no event is in flight, so a reprogramming
	// step (or a power failure inside one) never tears application state.
	if r.cfg.OTA != nil {
		if fs := r.cfg.OTA.AtBoundary(mcu.Now()); len(fs) > 0 {
			r.reportSwap(fs)
		}
	}
	return nil
}

// reportSwap routes OTA failure reports (a rolled-back update) through the
// same arbitration pipeline monitor verdicts take. Rollback reports carry
// action.None — the device keeps running on the previous bundle — but a
// hook returning a corrective action is honoured like any other decision.
func (r *Runtime) reportSwap(fs []ir.Failure) {
	pathID := r.cur.Path().ID
	dec := monitor.Decide(fs, pathID)
	if dec.Action == action.None {
		return
	}
	r.stats.Decisions[dec.Action]++
	if r.cfg.OnDecision != nil {
		r.cfg.OnDecision(monitor.Event{
			Seq: r.state.get(wEvSeq),
			Event: ir.Event{
				Kind: ir.EvEnd,
				Task: r.cur.Task().Name,
				Time: r.cfg.MCU.Now(),
				Path: pathID,
			},
		}, dec)
	}
	r.cfg.Telemetry.ActionTaken(dec.Action.String(), dec.Machine, dec.Path, r.cfg.MCU.Now())
	switch dec.Action {
	case action.RestartPath:
		r.stats.PathRestarts++
		r.restartPath(dec.Path)
	case action.SkipPath:
		r.stats.PathSkips++
		r.skipPath(dec.Path)
	}
}

// advanceTask moves to the next task, next path, next round, or completion.
func (r *Runtime) advanceTask() {
	if !r.cur.NextTask() {
		r.cur.NextPath()
	}
	r.commitMove()
}

// commitMove makes a cursor move durable. The task the cursor moved to
// starts ready with no event in flight; a finished walk leaves the status
// words as they were, so the terminal event's delivery bit stays the one
// the last decision left.
func (r *Runtime) commitMove() {
	s := r.state
	if !r.cur.Done() {
		s.setI(wStatus, statusReady)
		s.setB(wEvDelivered, true)
	}
	s.commit()
}

// restartPath re-initialises the path's monitors (idempotent) and rewinds
// to its first task.
func (r *Runtime) restartPath(pathID int) {
	r.cfg.Monitors.ResetPath(pathID)
	r.cur.Rewind()
	r.commitMove()
}

// skipPath abandons the current path and proceeds to the next one.
func (r *Runtime) skipPath(pathID int) {
	r.cfg.Monitors.ResetPath(pathID)
	r.cur.NextPath()
	r.commitMove()
}

// enterCompleteMode implements completePath (Table 1): the rest of the
// current path executes without property checking, and no further paths run
// this round; monitored execution resumes at the next round (the preserved
// next task is the following round's first task).
func (r *Runtime) enterCompleteMode() {
	r.state.setB(wCompleteMode, true)
	// A violating task that completed continues after itself; when it was
	// the path's last, the path is over.
	if r.state.getI(wStatus) == statusFinished && !r.cur.NextTask() {
		r.finishCompleteMode()
		return
	}
	r.commitMove()
}

// stepUnmonitored runs one task of the completing path without events. A
// finished task already committed its outputs: a power failure before the
// move below reboots here, and the task must not run a second time.
func (r *Runtime) stepUnmonitored() (bool, error) {
	if r.state.getI(wStatus) != statusFinished {
		if err := r.runCurrentTask(); err != nil {
			return false, err
		}
	}
	if r.cur.NextTask() {
		r.state.setI(wStatus, statusReady)
		r.state.commit()
		return false, nil
	}
	r.finishCompleteMode()
	return r.cur.Done(), nil
}

// finishCompleteMode ends the completing path: no further paths execute
// this round ("immediate termination of the current path without executing
// any further paths").
func (r *Runtime) finishCompleteMode() {
	r.state.setB(wCompleteMode, false)
	r.cur.NextRound()
	r.commitMove()
}

// Snapshot reports the persistent control state, for tests and tools.
type Snapshot struct {
	PathID    int
	TaskName  string
	Status    int64
	Round     int64
	Done      bool
	Complete  bool
	EventSeq  uint64
	Delivered bool
}

// Snapshot reads the current control state. Out-of-range indices (possible
// only under fault injection) report PathID -1 and an empty TaskName rather
// than panicking, so crash explorers can capture any terminal state.
func (r *Runtime) Snapshot() Snapshot {
	s := r.state
	round, pi, ti := r.cur.Position()
	snap := Snapshot{
		PathID:    -1,
		Status:    s.getI(wStatus),
		Round:     round,
		Done:      r.cur.Done(),
		Complete:  s.getB(wCompleteMode),
		EventSeq:  s.get(wEvSeq),
		Delivered: s.getB(wEvDelivered),
	}
	if pi >= 0 && int(pi) < len(r.cfg.Graph.Paths) {
		p := r.cfg.Graph.Paths[pi]
		snap.PathID = p.ID
		if ti >= 0 && int(ti) < len(p.Tasks) {
			snap.TaskName = p.Tasks[ti].Name
		}
	}
	return snap
}
