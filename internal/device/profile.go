package device

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// PeripheralOp is the cost of one use of a peripheral: its latency (during
// which the MCU is active and waiting) and the extra energy drawn by the
// peripheral itself on top of MCU active power.
type PeripheralOp struct {
	Latency simclock.Duration
	Energy  energy.Joules
}

// Profile is the static cost model of a microcontroller platform.
type Profile struct {
	Name    string
	ClockHz float64

	// ActivePower is the MCU core power while executing.
	ActivePower energy.Watts

	// IdlePower is drawn while the MCU waits in a low-power mode (radio
	// backoff, sensor settling). Zero models a free LPM sleep.
	IdlePower energy.Watts

	// FRAM access energy, charged per byte moved, on top of active power.
	FRAMReadPerByte  energy.Joules
	FRAMWritePerByte energy.Joules

	// Peripherals maps a peripheral name to its per-operation cost.
	Peripherals map[string]PeripheralOp
}

// Validate reports configuration errors in the profile.
func (p *Profile) Validate() error {
	if p.ClockHz <= 0 {
		return fmt.Errorf("device: profile %q has non-positive clock %g", p.Name, p.ClockHz)
	}
	if p.ActivePower < 0 || p.IdlePower < 0 || p.FRAMReadPerByte < 0 || p.FRAMWritePerByte < 0 {
		return fmt.Errorf("device: profile %q has negative cost", p.Name)
	}
	for name, op := range p.Peripherals {
		if op.Latency < 0 || op.Energy < 0 {
			return fmt.Errorf("device: peripheral %q has negative cost", name)
		}
	}
	return nil
}

// msp430Peripherals is the peripheral cost table of every MSP430FR5994
// profile. It is shared, not rebuilt per call: every deployment takes a
// profile, and the simulator only reads the table. Callers must not
// modify a profile's Peripherals map in place; clone it first.
var msp430Peripherals = map[string]PeripheralOp{
	// Internal ADC temperature read: cheap and fast.
	"adc": {Latency: 1 * simclock.Millisecond, Energy: energy.Microjoules(5)},
	// Accelerometer burst sampling over SPI: the most power-hungry
	// sensing operation in the benchmark (§5.1, path #2).
	"accel": {Latency: 40 * simclock.Millisecond, Energy: energy.Microjoules(420)},
	// Microphone capture for cough detection.
	"mic": {Latency: 20 * simclock.Millisecond, Energy: energy.Microjoules(180)},
	// BLE 5.0 transmission: expensive, like the paper's send task.
	"ble": {Latency: 50 * simclock.Millisecond, Energy: energy.Microjoules(520)},
	// PIR motion detector: near-free wake-up trigger.
	"pir": {Latency: 500 * simclock.Microsecond, Energy: energy.Microjoules(2)},
	// Greyscale camera capture (Camaroptera-class): the most
	// expensive single operation any app in this repository performs.
	"cam": {Latency: 90 * simclock.Millisecond, Energy: energy.Microjoules(950)},
}

// MSP430FR5994 returns the cost model used throughout the evaluation: a
// 1 MHz MSP430FR5994 (the paper's platform) with the Thunderboard EFR32BG22
// sensor suite of the wearable health application. The constants are
// order-of-magnitude calibrations from the MSP430FR59xx datasheet
// (~118 µA/MHz active at 3 V) and typical sensor/BLE energy figures; the
// evaluation depends on their relative magnitudes (accel and BLE transmission
// are the expensive operations — §5.1), not their absolute values. The
// Peripherals map is shared by every returned profile (see
// msp430Peripherals).
func MSP430FR5994() Profile {
	return Profile{
		Name:        "MSP430FR5994@1MHz",
		ClockHz:     1e6,
		ActivePower: 354e-6, // 118 µA/MHz · 3 V at 1 MHz
		IdlePower:   2.1e-6, // ~0.7 µA LPM3 at 3 V
		// FRAM accesses at 1 MHz are cache-less single-cycle; charge a small
		// per-byte premium over core power.
		FRAMReadPerByte:  energy.Joules(0.3e-9),
		FRAMWritePerByte: energy.Joules(1.0e-9),
		Peripherals:      msp430Peripherals,
	}
}

// MSP430FR5994At8MHz is the same platform clocked at 8 MHz: CPU work takes
// an eighth of the time while drawing proportionally more power, and FRAM
// accesses incur wait states (modelled as a higher per-byte cost).
// Experiments use it to confirm the evaluation's shape is not an artefact
// of the 1 MHz operating point.
func MSP430FR5994At8MHz() Profile {
	p := MSP430FR5994()
	p.Name = "MSP430FR5994@8MHz"
	p.ClockHz = 8e6
	p.ActivePower = 8 * 354e-6
	p.FRAMReadPerByte *= 2 // wait-state penalty above 1 MHz
	p.FRAMWritePerByte *= 2
	return p
}
