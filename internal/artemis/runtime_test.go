package artemis

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/tinysystems/artemis-go/internal/action"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// rig assembles a complete simulation of the health benchmark.
type rig struct {
	dev   *device.Device
	rt    *Runtime
	store *task.Store
	app   *health.App
}

// testbed varies the device a rig runs on. Its zero value is the paper's
// testbed: a perfect persistent clock and the MSP430FR5994 at 1 MHz.
type testbed struct {
	clock *simclock.Clock
	prof  *device.Profile
}

func newRig(t *testing.T, supply energy.Supply, temp float64) *rig {
	t.Helper()
	return newRigOn(t, testbed{}, supply, temp)
}

func newRigOn(t *testing.T, tb testbed, supply energy.Supply, temp float64) *rig {
	t.Helper()
	app := health.NewWithTemp(temp)
	mem := nvm.New(256 * 1024)
	clock, prof := tb.clock, device.MSP430FR5994()
	if clock == nil {
		clock = &simclock.Clock{}
	}
	if tb.prof != nil {
		prof = *tb.prof
	}
	mcu, err := device.NewMCU(clock, mem, supply, prof)
	if err != nil {
		t.Fatal(err)
	}
	store, err := task.NewStore(mem, "app", health.Keys())
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Parse(health.SpecSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := transform.Compile(s, transform.Options{Graph: app.Graph, DataVars: health.Keys()})
	if err != nil {
		t.Fatal(err)
	}
	mons, err := monitor.NewSet(mem, res)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store, Monitors: mons})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		dev:   &device.Device{MCU: mcu, MaxReboots: 300},
		rt:    rt,
		store: store,
		app:   app,
	}
}

func fixedSupply(t *testing.T, budgetUJ float64, delay simclock.Duration) *energy.FixedDelaySupply {
	t.Helper()
	s, err := energy.NewFixedDelaySupply(energy.Microjoules(budgetUJ), delay)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestContinuousPowerCompletes(t *testing.T) {
	r := newRig(t, &energy.Continuous{}, 36.6)
	res, err := r.dev.Run(r.rt.Boot)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Reboots != 0 {
		t.Fatalf("res = %+v", res)
	}
	st := r.rt.Stats()
	// Path 1 restarts nine times collecting ten samples, then completes.
	if st.PathRestarts != 9 {
		t.Errorf("path restarts = %d, want 9", st.PathRestarts)
	}
	if st.PathSkips != 0 || st.PathComplete != 0 || st.TaskSkips != 0 {
		t.Errorf("unexpected actions: %+v", st)
	}
	// send ran once per path.
	if got := r.store.Get("sentCount"); got != 3 {
		t.Errorf("sentCount = %g, want 3", got)
	}
	if got := r.store.Get("tempCount"); got != 10 {
		t.Errorf("tempCount = %g, want 10", got)
	}
	avg := r.store.Get("avgTemp")
	if math.Abs(avg-36.6) > 0.1 {
		t.Errorf("avgTemp = %g, want ~36.6", avg)
	}
	snap := r.rt.Snapshot()
	if !snap.Done {
		t.Error("runtime not done")
	}
}

func TestFeverTriggersCompletePath(t *testing.T) {
	r := newRig(t, &energy.Continuous{}, 39.2)
	res, err := r.dev.Run(r.rt.Boot)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	st := r.rt.Stats()
	if st.PathComplete != 1 {
		t.Fatalf("PathComplete = %d, want 1", st.PathComplete)
	}
	// The emergency completes path 1 (heartRate + send run unmonitored) and
	// no further paths execute: accel/micSense paths never send.
	if got := r.store.Get("sentCount"); got != 1 {
		t.Errorf("sentCount = %g, want 1 (only the emergency transmission)", got)
	}
	if got := r.store.Get("heartRate"); got == 0 {
		t.Error("heartRate task did not run during completePath")
	}
	if got := r.store.Get("accelData"); got != 0 {
		t.Error("path 2 ran despite completePath")
	}
}

func TestIntermittentShortDelayCompletes(t *testing.T) {
	supply := fixedSupply(t, 800, 2*simclock.Minute)
	r := newRig(t, supply, 36.6)
	res, err := r.dev.Run(r.rt.Boot)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if res.Reboots == 0 {
		t.Fatal("expected power failures under the 800 µJ budget")
	}
	st := r.rt.Stats()
	// With a 2-minute charging delay the 5-minute MITD holds: no path-level
	// give-ups.
	if st.PathSkips != 0 {
		t.Errorf("PathSkips = %d, want 0", st.PathSkips)
	}
	// The power failure inside path 2's send stretches that send past its
	// 100 ms maxDuration, so timeliness skips it (skipTask); paths 1 and 3
	// still transmit.
	if st.TaskSkips != 1 {
		t.Errorf("TaskSkips = %d, want 1 (the interrupted send)", st.TaskSkips)
	}
	if got := r.store.Get("sentCount"); got != 2 {
		t.Errorf("sentCount = %g, want 2", got)
	}
	if got := r.store.Get("micData"); got != 1 {
		t.Errorf("micData = %g, want 1", got)
	}
	if res.Elapsed < 2*simclock.Minute {
		t.Errorf("elapsed %v too short to include charging", res.Elapsed)
	}
}

func TestIntermittentLongDelaySkipsPathAfterAttempts(t *testing.T) {
	supply := fixedSupply(t, 800, 6*simclock.Minute)
	r := newRig(t, supply, 36.6)
	res, err := r.dev.Run(r.rt.Boot)
	if err != nil {
		t.Fatalf("ARTEMIS must prevent non-termination: %v", err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	st := r.rt.Stats()
	// The 6-minute charging delay makes the MITD unsatisfiable; after the
	// maxAttempt budget the path is skipped (Figure 13).
	if st.PathSkips < 1 {
		t.Errorf("PathSkips = %d, want >= 1", st.PathSkips)
	}
	if st.Decisions[action.SkipPath] < 1 {
		t.Errorf("no skipPath decision recorded: %+v", st.Decisions)
	}
	if st.Decisions[action.RestartPath] < 2 {
		t.Errorf("restart attempts = %d, want >= 2 before the skip", st.Decisions[action.RestartPath])
	}
	// Path 3 still transmits: the application delivers remaining data.
	if got := r.store.Get("micData"); got != 1 {
		t.Errorf("micData = %g, want 1 (path 3 must run)", got)
	}
	if got := r.store.Get("sentCount"); got < 2 {
		t.Errorf("sentCount = %g, want >= 2", got)
	}
}

func TestMonitorOverheadAttributed(t *testing.T) {
	r := newRig(t, &energy.Continuous{}, 36.6)
	if _, err := r.dev.Run(r.rt.Boot); err != nil {
		t.Fatal(err)
	}
	mcu := r.rt.cfg.MCU
	app := mcu.UsageOf(device.CompApp)
	mon := mcu.UsageOf(device.CompMonitor)
	runtime := mcu.UsageOf(device.CompRuntime)
	if app.Time == 0 || mon.Time == 0 || runtime.Time == 0 {
		t.Fatalf("missing attribution: app=%v mon=%v rt=%v", app.Time, mon.Time, runtime.Time)
	}
	// Application logic dominates (Figure 14); overheads are small but
	// non-zero (Figure 15).
	if app.Time < 10*(mon.Time+runtime.Time)/10 && app.Time < mon.Time {
		t.Fatalf("app time %v not dominant over mon %v + rt %v", app.Time, mon.Time, runtime.Time)
	}
}

func TestRuntimeSurvivesRebootMidPath(t *testing.T) {
	// Force a failure inside classify (path 2) and verify execution resumes
	// at the same task without redoing earlier paths.
	r := newRig(t, &energy.Continuous{}, 36.6)
	boots := 0
	boot := func() error {
		boots++
		if boots == 1 {
			// Fail 200 ms in: past path 1 (~160 ms of active time incl.
			// overheads), inside path 2's accel/filter stage.
			r.rt.cfg.MCU.ArmFailureAfter(200 * simclock.Millisecond)
		}
		return r.rt.Boot()
	}
	res, err := r.dev.Run(boot)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reboots != 1 {
		t.Fatalf("reboots = %d, want 1", res.Reboots)
	}
	if got := r.store.Get("sentCount"); got != 3 {
		t.Errorf("sentCount = %g, want 3", got)
	}
	if got := r.store.Get("tempCount"); got != 10 {
		t.Errorf("tempCount = %g, want 10 (path 1 must not re-run)", got)
	}
}

func TestUnsatisfiablePropertyReportsStuck(t *testing.T) {
	// heartRate can never produce 5 items before bodyTemp starts: the path
	// restarts forever on continuous power. ARTEMIS's step budget reports
	// it instead of hanging.
	src := `bodyTemp { collect: 5 dpTask: heartRate onFail: restartPath; }`
	app := health.New()
	mem := nvm.New(256 * 1024)
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, &energy.Continuous{}, device.MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	store, err := task.NewStore(mem, "app", health.Keys())
	if err != nil {
		t.Fatal(err)
	}
	res, err := transform.Compile(spec.MustParse(src), transform.Options{Graph: app.Graph, DataVars: health.Keys()})
	if err != nil {
		t.Fatal(err)
	}
	mons, err := monitor.NewSet(mem, res)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store, Monitors: mons, MaxSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	dev := &device.Device{MCU: mcu, MaxReboots: 10}
	_, err = dev.Run(rt.Boot)
	if !errors.Is(err, task.ErrStuck) {
		t.Fatalf("err = %v, want task.ErrStuck", err)
	}
}

func TestMultipleRounds(t *testing.T) {
	app := health.New()
	mem := nvm.New(256 * 1024)
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, &energy.Continuous{}, device.MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	store, err := task.NewStore(mem, "app", health.Keys())
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Compile()
	if err != nil {
		t.Fatal(err)
	}
	mons, err := monitor.NewSet(mem, res)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store, Monitors: mons, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	dev := &device.Device{MCU: mcu, MaxReboots: 10}
	if _, err := dev.Run(rt.Boot); err != nil {
		t.Fatal(err)
	}
	// Three rounds × three paths: nine transmissions. Rounds 2 and 3 each
	// need ten fresh bodyTemp samples again (the collect counter was
	// consumed), so tempCount reaches 30.
	if got := store.Get("sentCount"); got != 9 {
		t.Errorf("sentCount = %g, want 9", got)
	}
	if got := store.Get("tempCount"); got != 30 {
		t.Errorf("tempCount = %g, want 30", got)
	}
	if snap := rt.Snapshot(); snap.Round != 2 {
		t.Errorf("final round = %d, want 2 (zero-based)", snap.Round)
	}
}

// Property: under any boot budget and charging delay, the benchmark either
// completes with consistent outputs or reports non-termination — never a
// panic, never an inconsistent store.
func TestAnySupplyCompletesOrReportsProperty(t *testing.T) {
	f := func(budgetSel, delaySel uint8) bool {
		// Budgets from 600–1110 µJ: enough for every individual task
		// (send needs ~560 µJ with overheads) so progress stays possible.
		budget := 600 + float64(budgetSel)*2
		delay := simclock.Duration(1+int(delaySel)%10) * simclock.Minute
		supply, err := energy.NewFixedDelaySupply(energy.Microjoules(budget), delay)
		if err != nil {
			return false
		}
		r := newRigQuick(supply)
		if r == nil {
			return false
		}
		res, err := r.dev.Run(r.rt.Boot)
		if err != nil {
			return errors.Is(err, device.ErrNonTermination)
		}
		if !res.Completed {
			return false
		}
		// Timeliness may legitimately skip every interrupted transmission
		// under tiny budgets, so sentCount can be 0..3; sample collection
		// always reaches ten before calcAvg runs.
		sent := r.store.Get("sentCount")
		return sent >= 0 && sent <= 3 && r.store.Get("tempCount") >= 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func newRigQuick(supply energy.Supply) *rig {
	app := health.New()
	mem := nvm.New(256 * 1024)
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, supply, device.MSP430FR5994())
	if err != nil {
		return nil
	}
	store, err := task.NewStore(mem, "app", health.Keys())
	if err != nil {
		return nil
	}
	res, err := app.Compile()
	if err != nil {
		return nil
	}
	mons, err := monitor.NewSet(mem, res)
	if err != nil {
		return nil
	}
	rt, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store, Monitors: mons})
	if err != nil {
		return nil
	}
	return &rig{dev: &device.Device{MCU: mcu, MaxReboots: 400}, rt: rt, store: store, app: app}
}

func TestFRAMFootprintsAccounted(t *testing.T) {
	r := newRig(t, &energy.Continuous{}, 36.6)
	mem := r.rt.cfg.MCU.Mem
	if mem.FootprintBy(Owner) == 0 {
		t.Error("runtime footprint zero")
	}
	if mem.FootprintBy(monitor.Owner) == 0 {
		t.Error("monitor footprint zero")
	}
	if mem.FootprintBy("app") == 0 {
		t.Error("app footprint zero")
	}
	// The separated runtime is leaner than runtime+monitor combined, the
	// Table 2 structural claim.
	if mem.FootprintBy(Owner) >= mem.FootprintBy(monitor.Owner) {
		t.Errorf("runtime %d B >= monitor %d B; monitors carry the app-specific state",
			mem.FootprintBy(Owner), mem.FootprintBy(monitor.Owner))
	}
}

// TestMinEnergySkipsDoomedTask exercises the §4.2.2 extension end to end:
// with an energy-level precondition on the expensive task, the runtime
// skips it instead of starting work that the capacitor cannot finish —
// avoiding the wasted partial execution and the reboot entirely.
func TestMinEnergySkipsDoomedTask(t *testing.T) {
	build := func(specSrc string) (*device.Device, *Runtime, *task.Store) {
		cheap := &task.Task{Name: "cheap", Cycles: 1000, Run: func(c *task.Ctx) error {
			c.Add("cheapRuns", 1)
			return nil
		}}
		// ~495 µJ of active power: doomed when less than ~500 µJ remains.
		hungry := &task.Task{Name: "hungry", Cycles: 1_400_000, Run: func(c *task.Ctx) error {
			c.Add("hungryRuns", 1)
			return nil
		}}
		drainer := &task.Task{Name: "drainer", Cycles: 1_200_000} // ~425 µJ
		g, err := task.NewGraph(&task.Path{ID: 1, Tasks: []*task.Task{cheap, drainer, hungry}})
		if err != nil {
			t.Fatal(err)
		}
		supply, err := energy.NewFixedDelaySupply(energy.Microjoules(800), 2*simclock.Minute)
		if err != nil {
			t.Fatal(err)
		}
		mem := nvm.New(64 * 1024)
		mcu, err := device.NewMCU(&simclock.Clock{}, mem, supply, device.MSP430FR5994())
		if err != nil {
			t.Fatal(err)
		}
		store, err := task.NewStore(mem, "app", []string{"cheapRuns", "hungryRuns"})
		if err != nil {
			t.Fatal(err)
		}
		res, err := transform.Compile(spec.MustParse(specSrc), transform.Options{Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		mons, err := monitor.NewSet(mem, res)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Config{MCU: mcu, Graph: g, Store: store, Monitors: mons})
		if err != nil {
			t.Fatal(err)
		}
		return &device.Device{MCU: mcu, MaxReboots: 20}, rt, store
	}

	// Without energy awareness: hungry starts with ~370 µJ left, browns out
	// mid-task, and needs a recharge before succeeding.
	dev, rt, store := build(`cheap { maxTries: 10 onFail: skipPath; }`)
	res, err := dev.Run(rt.Boot)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reboots == 0 {
		t.Fatal("baseline run had no power failure; the scenario is miscalibrated")
	}
	if store.Get("hungryRuns") != 1 {
		t.Fatalf("hungryRuns = %g, want 1", store.Get("hungryRuns"))
	}

	// With the minEnergy precondition: the doomed start is skipped, no
	// power failure happens, and the run completes in one boot.
	dev2, rt2, store2 := build(`hungry { minEnergy: 520uJ onFail: skipTask; }`)
	res2, err := dev2.Run(rt2.Boot)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reboots != 0 {
		t.Fatalf("energy-aware run rebooted %d times, want 0", res2.Reboots)
	}
	if rt2.Stats().TaskSkips != 1 {
		t.Fatalf("TaskSkips = %d, want 1", rt2.Stats().TaskSkips)
	}
	if store2.Get("hungryRuns") != 0 {
		t.Fatalf("hungryRuns = %g, want 0 (skipped)", store2.Get("hungryRuns"))
	}
	if res2.Energy >= res.Energy {
		t.Fatalf("energy-aware run used %g J >= baseline %g J", res2.Energy, res.Energy)
	}
}

// TestCompletePathAtTaskStart drives the completePath action from a start
// event — only reachable through a hand-written IR machine, since the
// spec-generated dpData template fires at task end. The current task (not
// yet run) must execute as part of the unmonitored completion.
func TestCompletePathAtTaskStart(t *testing.T) {
	prog := ir.MustParse(`
machine PanicButton {
    initial state S {
        on start [task == "heartRate"] -> S { fail completePath; }
    }
}`)
	app := health.New()
	res := &transform.Result{
		Program: prog,
		Bindings: []transform.Binding{{
			Machine: "PanicButton", Task: "heartRate", Kind: spec.KindDpData, Path: 1,
		}},
	}
	mem := nvm.New(256 * 1024)
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, &energy.Continuous{}, device.MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	store, err := task.NewStore(mem, "app", health.Keys())
	if err != nil {
		t.Fatal(err)
	}
	mons, err := monitor.NewSet(mem, res)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store, Monitors: mons})
	if err != nil {
		t.Fatal(err)
	}
	dev := &device.Device{MCU: mcu, MaxReboots: 10}
	result, err := dev.Run(rt.Boot)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Completed {
		t.Fatal("did not complete")
	}
	if rt.Stats().PathComplete != 1 {
		t.Fatalf("PathComplete = %d, want 1", rt.Stats().PathComplete)
	}
	// heartRate itself and the rest of path 1 ran unmonitored; later paths
	// did not.
	if store.Get("heartRate") == 0 {
		t.Error("heartRate did not run during completePath")
	}
	if store.Get("sentCount") != 1 {
		t.Errorf("sentCount = %g, want 1", store.Get("sentCount"))
	}
	if store.Get("accelData") != 0 {
		t.Error("path 2 ran despite completePath")
	}
}
