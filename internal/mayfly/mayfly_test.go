package mayfly

import (
	"errors"
	"reflect"
	"testing"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
)

type rig struct {
	dev   *device.Device
	rt    *Runtime
	store *task.Store
}

func newRig(t *testing.T, supply energy.Supply) *rig {
	t.Helper()
	return newRigAt(t, device.MSP430FR5994(), supply)
}

func newRigAt(t *testing.T, prof device.Profile, supply energy.Supply) *rig {
	t.Helper()
	app := health.New()
	mem := nvm.New(256 * 1024)
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, supply, prof)
	if err != nil {
		t.Fatal(err)
	}
	store, err := task.NewStore(mem, "app", health.Keys())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store, Constraints: HealthConstraints()})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{dev: &device.Device{MCU: mcu, MaxReboots: 120}, rt: rt, store: store}
}

func fixedSupply(t *testing.T, budgetUJ float64, delay simclock.Duration) energy.Supply {
	t.Helper()
	s, err := energy.NewFixedDelaySupply(energy.Microjoules(budgetUJ), delay)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	app := health.New()
	mem := nvm.New(64 * 1024)
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, &energy.Continuous{}, device.MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	store, err := task.NewStore(mem, "app", health.Keys())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := []Constraint{{Task: "ghost", DpTask: "accel", Collect: 1}}
	if _, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store, Constraints: bad}); err == nil {
		t.Error("unknown task accepted")
	}
	bad = []Constraint{{Task: "send", DpTask: "ghost", Collect: 1}}
	if _, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store, Constraints: bad}); err == nil {
		t.Error("unknown dpTask accepted")
	}
	bad = []Constraint{{Task: "send", DpTask: "accel", Collect: 1, Path: 42}}
	if _, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store, Constraints: bad}); err == nil {
		t.Error("unknown path accepted")
	}
	bad = []Constraint{{Task: "send", DpTask: "accel", MITD: -1}}
	if _, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store, Constraints: bad}); err == nil {
		t.Error("negative MITD accepted")
	}
}

// TestDeploymentLayoutDeterministic: deployments of one graph lay out their
// per-task FRAM slots identically and end on the same image hash. Several
// deployments are compared because a map-ordered layout can coincide by
// chance.
func TestDeploymentLayoutDeterministic(t *testing.T) {
	var wantAlloc []nvm.Allocation
	var wantHash uint64
	for i := 0; i < 8; i++ {
		r := newRig(t, fixedSupply(t, 900, 30*simclock.Second))
		if _, err := r.dev.Run(r.rt.Boot); err != nil {
			t.Fatal(err)
		}
		mem := r.rt.cfg.MCU.Mem
		if i == 0 {
			wantAlloc, wantHash = mem.Allocations(), mem.Hash()
			continue
		}
		if got := mem.Allocations(); !reflect.DeepEqual(got, wantAlloc) {
			t.Fatalf("deployment %d: FRAM layout differs:\n  got  %v\n  want %v", i, got, wantAlloc)
		}
		if got := mem.Hash(); got != wantHash {
			t.Fatalf("deployment %d: final image hash %#x, want %#x", i, got, wantHash)
		}
	}
}

func TestContinuousPowerCompletes(t *testing.T) {
	r := newRig(t, &energy.Continuous{})
	res, err := r.dev.Run(r.rt.Boot)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Reboots != 0 {
		t.Fatalf("res = %+v", res)
	}
	// Nine collect restarts of path 1, like ARTEMIS.
	if got := r.rt.Stats().PathRestarts; got != 9 {
		t.Errorf("PathRestarts = %d, want 9", got)
	}
	if got := r.store.Get("sentCount"); got != 3 {
		t.Errorf("sentCount = %g, want 3", got)
	}
	if got := r.store.Get("tempCount"); got != 10 {
		t.Errorf("tempCount = %g, want 10", got)
	}
}

func TestShortChargingDelayCompletes(t *testing.T) {
	r := newRig(t, fixedSupply(t, 800, 2*simclock.Minute))
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
	// Mayfly has no maxDuration property: the interrupted send simply
	// re-executes after charging and completes, so all three paths send.
	if got := r.store.Get("sentCount"); got != 3 {
		t.Errorf("sentCount = %g, want 3", got)
	}
}

func TestLongChargingDelayNonTerminates(t *testing.T) {
	// The headline Figure-12 result: with charging above the 5-minute MITD,
	// Mayfly restarts path 2 forever and never completes.
	r := newRig(t, fixedSupply(t, 800, 6*simclock.Minute))
	_, err := r.dev.Run(r.rt.Boot)
	if !errors.Is(err, device.ErrNonTermination) {
		t.Fatalf("err = %v, want ErrNonTermination", err)
	}
	if r.rt.Stats().PathRestarts < 3 {
		t.Errorf("PathRestarts = %d, want many", r.rt.Stats().PathRestarts)
	}
	// Paths after the stuck one never execute.
	if got := r.store.Get("micData"); got != 0 {
		t.Errorf("micData = %g: path 3 must never run", got)
	}
}

// The Figure-12 headline must not be an artefact of the 1 MHz operating
// point: at 8 MHz, Mayfly still non-terminates under a 6-minute charging
// delay (ARTEMIS's side is internal/artemis TestEightMHzProfileCompletes).
func TestEightMHzProfileNonTerminates(t *testing.T) {
	r := newRigAt(t, device.MSP430FR5994At8MHz(), fixedSupply(t, 800, 6*simclock.Minute))
	if _, err := r.dev.Run(r.rt.Boot); !errors.Is(err, device.ErrNonTermination) {
		t.Fatalf("err = %v, want device.ErrNonTermination", err)
	}
}

func TestStuckOnContinuousPower(t *testing.T) {
	// An unsatisfiable collect (producer after consumer in the path)
	// livelocks on continuous power; the step budget reports it.
	app := health.New()
	mem := nvm.New(64 * 1024)
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, &energy.Continuous{}, device.MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	store, err := task.NewStore(mem, "app", health.Keys())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		MCU: mcu, Graph: app.Graph, Store: store, MaxSteps: 2000,
		Constraints: []Constraint{{Task: "bodyTemp", DpTask: "heartRate", Collect: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := &device.Device{MCU: mcu, MaxReboots: 5}
	if _, err := dev.Run(rt.Boot); !errors.Is(err, task.ErrStuck) {
		t.Fatalf("err = %v, want task.ErrStuck", err)
	}
}

func TestRebootResumesMidPath(t *testing.T) {
	r := newRig(t, &energy.Continuous{})
	boots := 0
	boot := func() error {
		boots++
		if boots == 1 {
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
	if got := r.store.Get("tempCount"); got != 10 {
		t.Errorf("tempCount = %g, want 10 (path 1 must not re-run)", got)
	}
	if got := r.store.Get("sentCount"); got != 3 {
		t.Errorf("sentCount = %g, want 3", got)
	}
}

func TestRuntimeFootprintLargerThanArtemisRuntime(t *testing.T) {
	// Table 2's structural claim: the coupled Mayfly runtime carries the
	// property bookkeeping that ARTEMIS moves into monitors.
	r := newRig(t, &energy.Continuous{})
	mem := r.rt.cfg.MCU.Mem
	if got := mem.FootprintBy(Owner); got == 0 {
		t.Fatal("mayfly footprint zero")
	}
	// Mayfly's temporal data model allocates metadata for every task and
	// edge of the graph, not just constrained ones.
	if got := len(r.rt.endTime); got != 8 {
		t.Errorf("endTime slots = %d, want 8 (every task)", got)
	}
	if got := len(r.rt.expiry); got != 8 {
		t.Errorf("expiry slots = %d, want 8 (every task)", got)
	}
	if got := len(r.rt.edgeTime); got != 7 {
		t.Errorf("edge slots = %d, want 7 (every edge)", got)
	}
	if got := len(r.rt.collected); got != 3 {
		t.Errorf("collect slots = %d, want 3", got)
	}
}

func TestMultipleRounds(t *testing.T) {
	app := health.New()
	mem := nvm.New(64 * 1024)
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, &energy.Continuous{}, device.MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	store, err := task.NewStore(mem, "app", health.Keys())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store,
		Constraints: HealthConstraints(), Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	dev := &device.Device{MCU: mcu, MaxReboots: 10}
	if _, err := dev.Run(rt.Boot); err != nil {
		t.Fatal(err)
	}
	if got := store.Get("sentCount"); got != 6 {
		t.Errorf("sentCount = %g, want 6", got)
	}
	if got := store.Get("tempCount"); got != 20 {
		t.Errorf("tempCount = %g, want 20", got)
	}
}

// TestCorruptCursorIsTyped checks a boot that loads an out-of-range cursor
// (a soft error in the committed control region) fails with
// task.ErrCorrupt instead of indexing the graph with it.
func TestCorruptCursorIsTyped(t *testing.T) {
	r := newRig(t, &energy.Continuous{})
	r.rt.init.Set(true)
	r.rt.ctl.WriteUint64(0, 99) // path index
	r.rt.ctl.Commit()
	if _, err := r.dev.Run(r.rt.Boot); !errors.Is(err, task.ErrCorrupt) {
		t.Fatalf("err = %v, want task.ErrCorrupt", err)
	}
}
