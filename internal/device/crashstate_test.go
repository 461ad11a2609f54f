package device

import (
	"math"
	"testing"

	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// scopedBoot is a boot function with a runtime scope around an integrity
// scope, each charging cycles and writing FRAM. The first attempt writes
// 1: a done flag, 2: a word under the runtime scope, 3: a word under the
// integrity scope; a later attempt finds the flag and returns. With
// outerScope false the runtime switch is a plain SetComponent, which no
// unwinding undoes.
func scopedBoot(m *MCU, r *nvm.Region, outerScope bool) func() error {
	return func() error {
		if outerScope {
			m.Enter(CompRuntime)
			defer m.Leave()
		} else {
			m.SetComponent(CompRuntime)
		}
		m.Exec(400)
		if r.ByteAt(0) != 0 {
			return nil
		}
		r.SetByteAt(0, 1)
		m.Exec(300)
		r.WriteUint64(8, 0x1122334455667788)
		func() {
			m.Enter(CompIntegrity)
			defer m.Leave()
			m.Exec(200)
			r.WriteUint64(16, 0x8877665544332211)
			m.Exec(100)
		}()
		m.Exec(500)
		return nil
	}
}

// scopedDevice builds a device over a fresh 4 KiB memory with one region.
func scopedDevice(t *testing.T, supply energy.Supply) (*Device, *nvm.Region) {
	t.Helper()
	mem := nvm.New(4096)
	r := mem.MustAlloc("app", "r", 32)
	m, err := NewMCU(&simclock.Clock{}, mem, supply, MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	return &Device{MCU: m}, r
}

// crashView is everything the two unwinding paths must agree on.
type crashView struct {
	res    RunResult
	err    error
	scopes int
	// atReboot is the supply right after the crash's unwind and recharge,
	// before the next attempt's own drains can round a difference away.
	atReboot energy.State
	usage    [5]Usage
	clock    simclock.State
	supply   energy.State
	voltage  uint64
	mem      nvm.Stats
	hash     uint64
}

// watchReboot records the supply at d's first reboot into v.
func watchReboot(d *Device, v *crashView) {
	d.OnReboot = func(n int, _ simclock.Duration) {
		if n == 1 {
			v.atReboot, _ = energy.Snapshot(d.MCU.Supply)
		}
	}
}

func viewOf(d *Device, v crashView, res RunResult, err error) crashView {
	v.res, v.err, v.scopes, v.mem, v.hash = res, err, len(d.MCU.scopes), d.MCU.Mem.Stats(), d.MCU.Mem.Hash()
	for i, c := range []Component{CompApp, CompRuntime, CompMonitor, CompIntegrity, CompTelemetry} {
		v.usage[i] = d.MCU.UsageOf(c)
	}
	v.clock, _ = d.MCU.Clock.State()
	v.supply, _ = energy.Snapshot(d.MCU.Supply)
	if h, ok := d.MCU.Supply.(*energy.HarvestedSupply); ok {
		v.voltage = math.Float64bits(h.Cap.Voltage())
	}
	return v
}

// unwindBothWays crashes scopedBoot after write k twice: once by panicking
// inside the write, so the deferred Leaves unwind the attempt, and once by
// resuming a fresh device from the crash state a recorded reference run
// logged at write k. supply builds a fresh supply for each device; arm,
// when non-nil, prepares the two devices that run from the start.
func unwindBothWays(t *testing.T, supply func() energy.Supply, arm func(*Device), k int) (panicked, resumed crashView) {
	t.Helper()
	if arm == nil {
		arm = func(*Device) {}
	}
	d, r := scopedDevice(t, supply())
	arm(d)
	d.MCU.Mem.SetWriteCrashHook(k, func() { panic(PowerFailure{At: d.MCU.Now()}) })
	watchReboot(d, &panicked)
	res, err := d.Run(scopedBoot(d.MCU, r, true))
	panicked = viewOf(d, panicked, res, err)

	ref, rr := scopedDevice(t, supply())
	arm(ref)
	var wl nvm.WriteLog
	var cl CrashLog
	if err := ref.Checkpointable(); err != nil {
		t.Fatal(err)
	}
	ref.MCU.Mem.Log(&wl, func() { cl.Capture(ref) })
	if _, err := ref.Run(scopedBoot(ref.MCU, rr, true)); err != nil {
		t.Fatal(err)
	}
	ref.MCU.Mem.StopLog()
	if wl.Writes() < k {
		t.Fatalf("reference run logged %d writes, want at least %d", wl.Writes(), k)
	}

	fresh, fr := scopedDevice(t, supply())
	if err := fresh.MCU.Mem.Restore(&wl, k); err != nil {
		t.Fatal(err)
	}
	watchReboot(fresh, &resumed)
	res, err = fresh.Resume(scopedBoot(fresh.MCU, fr, true), &cl, k)
	return panicked, viewOf(fresh, resumed, res, err)
}

// A power failure inside nested scopes on a harvested capacitor: the
// integrity scope's Leave flushes the crashing write's FRAM energy, and
// the runtime scope's Leave drains zero energy, which the capacitor's sqrt
// round trip moves by an ulp from the 3.0192 V turn-on voltage used here.
// Resume must make exactly the same calls: the view taken at the reboot
// tells a missing drain apart, before a recharge or the next attempt's
// first switch, itself a zero-energy drain, can round the difference away.
func TestResumeUnwindsNestedScopesOnCapacitor(t *testing.T) {
	supply := func() energy.Supply {
		c, err := energy.NewCapacitor(100e-6, 3.3, 3.0192, 1.8)
		if err != nil {
			t.Fatal(err)
		}
		// A dead harvester: the recharge gives up after a day and leaves
		// the voltage the unwind left.
		return &energy.HarvestedSupply{Cap: c, Harv: energy.ConstantHarvester(0)}
	}
	// The scenario must tell the zero-energy drain apart: without the
	// runtime scope the attempt ends one ulp higher.
	attemptVoltage := func(outerScope bool) float64 {
		d, r := scopedDevice(t, supply())
		d.MCU.Mem.SetWriteCrashHook(3, func() { panic(PowerFailure{At: d.MCU.Now()}) })
		if _, failed := d.attempt(scopedBoot(d.MCU, r, outerScope)); !failed {
			t.Fatal("the crash hook did not fail the attempt")
		}
		return d.MCU.Supply.(*energy.HarvestedSupply).Cap.Voltage()
	}
	if attemptVoltage(true) == attemptVoltage(false) {
		t.Fatal("the outer scope's zero-energy drain leaves the voltage unchanged; the test would not see it")
	}
	panicked, resumed := unwindBothWays(t, supply, nil, 3)
	if panicked != resumed {
		t.Fatalf("nested-scope crash on a capacitor:\n panicked %+v\n resumed  %+v", panicked, resumed)
	}
	if panicked.res.Reboots != 1 || !panicked.res.Completed {
		t.Fatalf("want one reboot and completion, got %+v", panicked.res)
	}
}

// A power failure on a fixed-delay supply whose remaining energy covers the
// crashing write's cycles but not its FRAM energy: the flush in the first
// Leave browns out during the unwind, and the outer Leave drains again on
// an empty supply. Both paths must still count one reboot and agree on
// every charge.
func TestResumeUnwindBrownsOutInFlush(t *testing.T) {
	// Probe the energy drained right at the crashing write, before its
	// pending FRAM energy is flushed.
	probe, pr := scopedDevice(t, &energy.Continuous{})
	var atCrash energy.Joules
	probe.MCU.Mem.SetWriteCrashHook(3, func() {
		atCrash = probe.MCU.Supply.Drained()
		panic(PowerFailure{At: probe.MCU.Now()})
	})
	if _, err := probe.Run(scopedBoot(probe.MCU, pr, true)); err != nil {
		t.Fatal(err)
	}
	pending := probe.MCU.Prof.FRAMWritePerByte * 8
	budget := atCrash + pending/2
	supply := func() energy.Supply {
		s, err := energy.NewFixedDelaySupply(budget, simclock.Second)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	panicked, resumed := unwindBothWays(t, supply, nil, 3)
	if panicked != resumed {
		t.Fatalf("brown-out during the unwind:\n panicked %+v\n resumed  %+v", panicked, resumed)
	}
	if panicked.supply.Failures < 1 || !panicked.res.Completed {
		t.Fatalf("want a completed run after the brown-out, got %+v", panicked)
	}
	if panicked.usage[3] == (Usage{}) {
		t.Fatal("the integrity scope charged nothing")
	}
}

// Enter that browns out in its own switch opens no scope, and Leave closes
// the scope before its switch can brown out.
func TestScopeBookkeepingAcrossBrownOuts(t *testing.T) {
	s, err := energy.NewFixedDelaySupply(energy.Joules(1e-12), 0)
	if err != nil {
		t.Fatal(err)
	}
	d, r := scopedDevice(t, s)
	m := d.MCU
	r.SetByteAt(1, 1) // pending FRAM energy, beyond the budget
	func() {
		defer func() { recover() }()
		m.Enter(CompRuntime)
	}()
	if len(m.scopes) != 0 || m.Component() != CompApp {
		t.Fatalf("Enter browned out but left scopes %v on %s", m.scopes, m.Component())
	}
	s.Recharge(0)
	m.Enter(CompRuntime)
	r.SetByteAt(2, 1)
	func() {
		defer func() { recover() }()
		m.Leave()
	}()
	if len(m.scopes) != 0 {
		t.Fatalf("Leave browned out but left scopes %v", m.scopes)
	}
}

// A forced failure armed before the crash is part of the crash state: the
// resumed device must still fail after the armed time, on its next boot.
func TestResumeCarriesForcedFailure(t *testing.T) {
	supply := func() energy.Supply { return &energy.Continuous{} }
	// The first attempt spends 700 µs before write 2; the remaining
	// 200 µs run out inside the next boot's first 400 µs of work.
	arm := func(d *Device) { d.MCU.ArmFailureAfter(900 * simclock.Microsecond) }
	panicked, resumed := unwindBothWays(t, supply, arm, 2)
	if panicked != resumed {
		t.Fatalf("armed forced failure:\n panicked %+v\n resumed  %+v", panicked, resumed)
	}
	if panicked.res.Reboots != 2 {
		t.Fatalf("want the crash and the forced failure as two reboots, got %+v", panicked.res)
	}
}
