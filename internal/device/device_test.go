package device

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

func newTestMCU(t *testing.T, supply energy.Supply) *MCU {
	t.Helper()
	m, err := NewMCU(&simclock.Clock{}, nvm.New(64*1024), supply, MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMCUValidation(t *testing.T) {
	clock, mem := &simclock.Clock{}, nvm.New(1024)
	if _, err := NewMCU(nil, mem, &energy.Continuous{}, MSP430FR5994()); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := NewMCU(clock, nil, &energy.Continuous{}, MSP430FR5994()); err == nil {
		t.Error("nil memory accepted")
	}
	if _, err := NewMCU(clock, mem, nil, MSP430FR5994()); err == nil {
		t.Error("nil supply accepted")
	}
	bad := MSP430FR5994()
	bad.ClockHz = 0
	if _, err := NewMCU(clock, mem, &energy.Continuous{}, bad); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestProfileValidate(t *testing.T) {
	p := MSP430FR5994()
	if err := p.Validate(); err != nil {
		t.Fatalf("stock profile invalid: %v", err)
	}
	p.ActivePower = -1
	if p.Validate() == nil {
		t.Error("negative active power accepted")
	}
	p = MSP430FR5994()
	p.Peripherals["bad"] = PeripheralOp{Latency: -1}
	if p.Validate() == nil {
		t.Error("negative peripheral latency accepted")
	}
}

func TestExecAdvancesTimeAndEnergy(t *testing.T) {
	m := newTestMCU(t, &energy.Continuous{})
	m.Exec(1_000_000) // 1M cycles at 1 MHz = 1 s
	if got := m.Now(); got != simclock.Time(simclock.Second) {
		t.Fatalf("Now = %v, want 1s", got)
	}
	// 354 µW for 1 s = 354 µJ.
	got := float64(m.Supply.Drained())
	if math.Abs(got-354e-6) > 1e-9 {
		t.Fatalf("Drained = %g, want 354 µJ", got)
	}
}

func TestExecZeroOrNegativeIsNoOp(t *testing.T) {
	m := newTestMCU(t, &energy.Continuous{})
	m.Exec(0)
	m.Exec(-5)
	if m.Now() != 0 || m.Supply.Drained() != 0 {
		t.Fatal("no-op Exec consumed resources")
	}
}

func TestPeripheralCosts(t *testing.T) {
	m := newTestMCU(t, &energy.Continuous{})
	m.Peripheral("ble")
	op := m.Prof.Peripherals["ble"]
	if m.Now() != simclock.Time(op.Latency) {
		t.Fatalf("Now = %v, want %v", m.Now(), op.Latency)
	}
	want := float64(op.Energy) + float64(m.Prof.ActivePower.Over(op.Latency))
	if got := float64(m.Supply.Drained()); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Drained = %g, want %g", got, want)
	}
}

func TestUnknownPeripheralPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown peripheral did not panic")
		}
	}()
	newTestMCU(t, &energy.Continuous{}).Peripheral("warp-drive")
}

func TestFRAMTrafficCharged(t *testing.T) {
	m := newTestMCU(t, &energy.Continuous{})
	r := m.Mem.MustAlloc("app", "buf", 1024)
	r.Write(0, make([]byte, 1000))
	m.Exec(1) // next spend picks up the FRAM delta
	wantFRAM := 1000 * float64(m.Prof.FRAMWritePerByte)
	got := float64(m.Supply.Drained())
	wantCPU := float64(m.Prof.ActivePower.Over(simclock.Microsecond))
	if math.Abs(got-(wantFRAM+wantCPU)) > 1e-12 {
		t.Fatalf("Drained = %g, want %g", got, wantFRAM+wantCPU)
	}
}

func TestComponentAttribution(t *testing.T) {
	m := newTestMCU(t, &energy.Continuous{})
	m.SetComponent(CompApp)
	m.Exec(1000)
	prev := m.SetComponent(CompMonitor)
	if prev != CompApp {
		t.Fatalf("SetComponent returned %q, want app", prev)
	}
	m.Exec(3000)
	m.SetComponent(CompRuntime)
	m.Exec(500)

	if got := m.UsageOf(CompApp).Time; got != simclock.Millisecond {
		t.Errorf("app time %v, want 1ms", got)
	}
	if got := m.UsageOf(CompMonitor).Time; got != 3*simclock.Millisecond {
		t.Errorf("monitor time %v, want 3ms", got)
	}
	if got := m.UsageOf(CompRuntime).Time; got != 500*simclock.Microsecond {
		t.Errorf("runtime time %v, want 0.5ms", got)
	}
	total := m.TotalUsage()
	if total.Time != 4500*simclock.Microsecond {
		t.Errorf("total time %v, want 4.5ms", total.Time)
	}
}

// TestTotalUsageOrderIndependent charges components with energies whose
// floating-point sum depends on the order they are added in (1 + 1e-16 +
// 1e-16 is 1, 1e-16 + 1e-16 + 1 is not) and requires TotalUsage to return
// the bit-identical total on every call, for predeclared and custom
// components alike.
func TestTotalUsageOrderIndependent(t *testing.T) {
	for _, comps := range [][]Component{
		{CompApp, CompRuntime, CompMonitor},
		{CompApp, "custom-b", "custom-a"},
	} {
		m := newTestMCU(t, &energy.Continuous{})
		for i, e := range []energy.Joules{1, 1e-16, 1e-16} {
			m.usage(comps[i]).Energy += e
		}
		first := math.Float64bits(float64(m.TotalUsage().Energy))
		for call := 0; call < 100; call++ {
			if got := math.Float64bits(float64(m.TotalUsage().Energy)); got != first {
				t.Fatalf("%v: TotalUsage call %d energy bits %#x, first call %#x", comps, call, got, first)
			}
		}
	}
}

func TestBrownOutRaisesPowerFailure(t *testing.T) {
	supply, err := energy.NewFixedDelaySupply(energy.Microjoules(100), simclock.Minute)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMCU(t, supply)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("brown-out did not raise PowerFailure")
		}
		if _, ok := r.(PowerFailure); !ok {
			t.Fatalf("raised %v, want PowerFailure", r)
		}
	}()
	m.Exec(10_000_000) // 10 s of active power >> 100 µJ budget
}

func TestDeviceRunCompletesOnContinuousPower(t *testing.T) {
	m := newTestMCU(t, &energy.Continuous{})
	d := &Device{MCU: m}
	calls := 0
	res, err := d.Run(func() error {
		calls++
		m.Exec(1000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Reboots != 0 || calls != 1 {
		t.Fatalf("res=%+v calls=%d", res, calls)
	}
	if res.Active != simclock.Millisecond || res.Elapsed != simclock.Millisecond {
		t.Fatalf("active=%v elapsed=%v, want 1ms each", res.Active, res.Elapsed)
	}
}

func TestDeviceRunRebootsAndMakesProgress(t *testing.T) {
	// 400 µJ per boot; each boot costs ~354 µJ/s of CPU. A persistent
	// counter lets the app finish after 3 units of work.
	supply, err := energy.NewFixedDelaySupply(energy.Microjoules(400), 2*simclock.Minute)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMCU(t, supply)
	progress := nvm.MustAllocVar[int64](m.Mem, "app", "progress")
	d := &Device{MCU: m}
	var offs []simclock.Duration
	d.OnReboot = func(n int, off simclock.Duration) { offs = append(offs, off) }
	res, err := d.Run(func() error {
		for progress.Get() < 3 {
			m.Exec(900_000) // ~0.9 s ≈ 319 µJ: one unit per boot
			progress.Set(progress.Get() + 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if res.Reboots != 2 {
		t.Fatalf("reboots = %d, want 2", res.Reboots)
	}
	for _, off := range offs {
		if off != 2*simclock.Minute {
			t.Fatalf("charging delay %v, want 2m", off)
		}
	}
	// Elapsed must include the two 2-minute charging delays.
	if res.Elapsed < 4*simclock.Minute {
		t.Fatalf("elapsed %v, want >= 4m of charging", res.Elapsed)
	}
	if res.Active >= simclock.Minute {
		t.Fatalf("active %v implausibly large", res.Active)
	}
}

func TestDeviceRunNonTermination(t *testing.T) {
	supply, err := energy.NewFixedDelaySupply(energy.Microjoules(100), simclock.Minute)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMCU(t, supply)
	d := &Device{MCU: m, MaxReboots: 50}
	_, err = d.Run(func() error {
		m.Exec(10_000_000) // always browns out: no progress possible
		return nil
	})
	if !errors.Is(err, ErrNonTermination) {
		t.Fatalf("err = %v, want ErrNonTermination", err)
	}
}

func TestDeviceRunPropagatesAppError(t *testing.T) {
	m := newTestMCU(t, &energy.Continuous{})
	d := &Device{MCU: m}
	sentinel := errors.New("app failed")
	res, err := d.Run(func() error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if res.Completed {
		t.Fatal("Completed true despite app error")
	}
}

func TestDeviceRunPropagatesForeignPanics(t *testing.T) {
	m := newTestMCU(t, &energy.Continuous{})
	d := &Device{MCU: m}
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed by Run")
		}
	}()
	d.Run(func() error { panic("bug in app") })
}

func TestArmedFailureFiresInsideWork(t *testing.T) {
	m := newTestMCU(t, &energy.Continuous{})
	d := &Device{MCU: m, MaxReboots: 5}
	attempt := 0
	res, err := d.Run(func() error {
		attempt++
		if attempt == 1 {
			m.ArmFailureAfter(5 * simclock.Millisecond)
		}
		m.Exec(10_000) // 10 ms; forced failure at 5 ms on first attempt
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reboots != 1 || attempt != 2 {
		t.Fatalf("reboots=%d attempts=%d, want 1/2", res.Reboots, attempt)
	}
	// 5 ms burned on attempt 1 + 10 ms on attempt 2.
	if res.Active != 15*simclock.Millisecond {
		t.Fatalf("active = %v, want 15ms", res.Active)
	}
}

func TestDisarmFailure(t *testing.T) {
	m := newTestMCU(t, &energy.Continuous{})
	m.ArmFailureAfter(simclock.Millisecond)
	m.DisarmFailure()
	m.Exec(10_000) // would fail if still armed
	if m.Now() != simclock.Time(10*simclock.Millisecond) {
		t.Fatalf("Now = %v", m.Now())
	}
}

// Property: on continuous power, total usage time always equals the clock's
// on-time, for any interleaving of Exec and Peripheral calls.
func TestUsageMatchesClockProperty(t *testing.T) {
	periphs := []string{"adc", "accel", "mic", "ble"}
	f := func(ops []uint8) bool {
		m, err := NewMCU(&simclock.Clock{}, nvm.New(4096), &energy.Continuous{}, MSP430FR5994())
		if err != nil {
			return false
		}
		for _, op := range ops {
			if op%2 == 0 {
				m.Exec(int64(op) * 100)
			} else {
				m.Peripheral(periphs[int(op)%len(periphs)])
			}
		}
		return m.TotalUsage().Time == m.Clock.OnTime()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: energy drained from a fixed-delay supply never exceeds
// budget × (reboots + 1) and the device always either completes or reports
// non-termination — Run never hangs or panics for arbitrary work sizes.
func TestRunAlwaysTerminatesProperty(t *testing.T) {
	f := func(workUnits uint8, budgetUJ uint8) bool {
		budget := energy.Microjoules(float64(budgetUJ%100) + 50) // 50–149 µJ
		supply, err := energy.NewFixedDelaySupply(budget, simclock.Minute)
		if err != nil {
			return false
		}
		m, err := NewMCU(&simclock.Clock{}, nvm.New(4096), supply, MSP430FR5994())
		if err != nil {
			return false
		}
		progress := nvm.MustAllocVar[int64](m.Mem, "app", "p")
		d := &Device{MCU: m, MaxReboots: 300}
		_, err = d.Run(func() error {
			for progress.Get() < int64(workUnits%20) {
				m.Exec(100_000) // 0.1 s ≈ 35 µJ per unit
				progress.Set(progress.Get() + 1)
			}
			return nil
		})
		return err == nil || errors.Is(err, ErrNonTermination)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRadioCosts(t *testing.T) {
	m := newTestMCU(t, &energy.Continuous{})
	m.Radio(3*simclock.Millisecond, energy.Microjoules(45))
	if m.Now() != simclock.Time(3*simclock.Millisecond) {
		t.Fatalf("Now = %v, want 3ms", m.Now())
	}
	want := 45e-6 + float64(m.Prof.ActivePower.Over(3*simclock.Millisecond))
	if got := float64(m.Supply.Drained()); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Drained = %g, want %g", got, want)
	}
}

func TestEnergyLevel(t *testing.T) {
	cont := newTestMCU(t, &energy.Continuous{})
	if !math.IsInf(float64(cont.EnergyLevel()), 1) {
		t.Fatalf("continuous level = %v, want +Inf", cont.EnergyLevel())
	}
	supply, err := energy.NewFixedDelaySupply(energy.Microjoules(500), simclock.Minute)
	if err != nil {
		t.Fatal(err)
	}
	metered := newTestMCU(t, supply)
	if got := float64(metered.EnergyLevel()); math.Abs(got-500e-6) > 1e-12 {
		t.Fatalf("metered level = %g, want 500 µJ", got)
	}
	metered.Exec(100_000) // ~35 µJ
	if got := float64(metered.EnergyLevel()); got >= 500e-6 {
		t.Fatalf("level did not drop: %g", got)
	}
}

func TestEightMHzProfile(t *testing.T) {
	p := MSP430FR5994At8MHz()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	base := MSP430FR5994()
	if p.ClockHz != 8*base.ClockHz {
		t.Fatalf("ClockHz = %g", p.ClockHz)
	}
	// Same work: an eighth of the time, roughly the same energy.
	m8, err := NewMCU(&simclock.Clock{}, nvm.New(1024), &energy.Continuous{}, p)
	if err != nil {
		t.Fatal(err)
	}
	m8.Exec(8_000_000)
	if m8.Now() != simclock.Time(simclock.Second) {
		t.Fatalf("8M cycles at 8 MHz = %v, want 1s", m8.Now())
	}
}
