package chaos

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// This file wires the chaos engine to the paper's health benchmark — the
// shared campaign definitions the CLI (`artemis-sim --chaos`) and the test
// suite both run. Keeping them here means "the campaign the CI smoke test
// passes" and "the campaign a user runs" are the same object. Crash, radio
// and flip campaigns derive from any examplespecs.Case; the sensor and swap
// campaigns stay health-only, since a case has no sensor hook to wrap a
// fault around and no spec revision to swap to.

// NewHealthExplorer builds the exhaustive NVM-write-granularity crash
// explorer for the health benchmark on continuous power: every persistent
// write index gets its own crash run. Budget > 0 switches to seeded
// sampling of that many points.
func NewHealthExplorer(seed int64, budget int) *Explorer {
	e := NewExplorer(examplespecs.Health(), nil)
	e.Seed, e.Budget = seed, budget
	return e
}

// NewHealthSensorCampaign builds the sensor-fault campaign: harmful faults
// (a stuck or glitching thermistor) must trip the dpData range monitor on
// calcAvg — visible as a pathCompletes decision and a clamped send count —
// while a benign ripple must leave the run indistinguishable from
// fault-free.
func NewHealthSensorCampaign() *SensorCampaign {
	detects := func(name string) func(got Outcome) error {
		return func(got Outcome) error {
			if !got.Completed {
				return fmt.Errorf("%s: run did not complete", name)
			}
			if got.PathCompletes == 0 {
				return fmt.Errorf("%s: dpData range monitor never fired (pathCompletes = 0)", name)
			}
			return nil
		}
	}
	d := examplespecs.NewDeployer(examplespecs.Health())
	return &SensorCampaign{
		Build: func(f SensorFault) (*core.Framework, error) {
			app := health.New()
			app.SenseTemp = f.Apply
			return d.Deploy(continuous(func(cfg *core.Config) { cfg.Graph = app.Graph }))
		},
		Keys: storeKeys(d),
		Cases: []SensorCase{
			{Fault: StuckAt{Value: 40}, Expect: detects("stuck-at 40°C")},
			{Fault: Spike{Delta: 20, Every: 3}, Expect: detects("20°C spike")},
			{Fault: Dropout{Every: 2, Value: 0}, Expect: detects("dropout to 0°C")},
			{Fault: Spike{Delta: 0.2, Every: 5}, Expect: func(got Outcome) error {
				// Benign ripple: well inside [36, 38], must NOT trip the
				// range monitor, and all three sends go out.
				if !got.Completed {
					return fmt.Errorf("benign ripple: run did not complete")
				}
				if got.PathCompletes != 0 {
					return fmt.Errorf("benign ripple: false positive (pathCompletes = %d)", got.PathCompletes)
				}
				if sc := got.Outputs["sentCount"]; sc != 3 {
					return fmt.Errorf("benign ripple: sentCount = %v, want 3", sc)
				}
				return nil
			}},
		},
	}
}

// integrityConfig enables the self-healing layer on a deployment:
// guards on every persistent surface, a fast scrub schedule (so mid-run
// corruption is found within the run), and the forward-progress watchdog.
func integrityConfig(scrub simclock.Duration) func(cfg *core.Config) {
	return func(cfg *core.Config) {
		cfg.Integrity = true
		cfg.ScrubInterval = scrub
		cfg.WatchdogLimit = 8
	}
}

// NewHealthCampaign bundles all five fault families against the health
// benchmark — the configuration `artemis-sim --chaos` runs. crashBudget
// bounds the crash exploration (0 = exhaustive); radioRuns and flipRuns
// size the seeded campaigns (flipRuns also sizes the faulted-update swap
// campaign). withIntegrity runs the crash sweep and the flip campaign with
// the self-healing layer enabled; flightDepth > 0 runs the flip campaign
// with the telemetry flight recorder attached so unrecoverable verdicts
// include a black-box dump.
func NewHealthCampaign(seed int64, crashBudget, radioRuns, flipRuns int, withIntegrity bool, flightDepth int) *Campaign {
	// The integrity crash sweep scrubs every 100 ms: its guard CRCs commit
	// in the same selector flip as their data, so every oracle must stay
	// as clean as the unguarded sweep.
	var mut func(cfg *core.Config)
	if withIntegrity {
		mut = integrityConfig(100 * simclock.Millisecond)
	}
	crash := NewExplorer(examplespecs.Health(), mut)
	crash.Seed, crash.Budget = seed, crashBudget
	return &Campaign{
		Seed:   seed,
		Crash:  crash,
		Radio:  NewRadioCampaign(examplespecs.Health(), seed, radioRuns),
		Sensor: NewHealthSensorCampaign(),
		Flip:   NewFlipCampaign(examplespecs.Health(), seed, flipRuns, withIntegrity, flightDepth),
		Swap:   NewHealthSwapCampaign(seed, flipRuns, flightDepth),
	}
}

// withSwapConfig queues the v1 -> v2 health spec swap on a deployment: the
// loosened-bounds revision transfers over the given link (nil = perfect)
// in 64-byte chunks starting after runtime event 2, with the optional
// corruption hook poisoning chunks in flight.
func withSwapConfig(cfg *core.Config, link monitor.Link, corrupt func(chunk int, data []byte) []byte) {
	// The shared compiled revision is validated by every swap test; an
	// error here surfaces as core.New rejecting the nil SwapCompiled.
	v2, _ := health.CompiledSharedV2()
	cfg.SwapCompiled = v2
	cfg.SwapAt = 2
	cfg.SwapLink = link
	cfg.SwapCorrupt = corrupt
}

// NewHealthSwapCampaign is the faulted-transfer reprogramming campaign:
// chunk loss and duplication on every run, plus an in-flight corrupted
// chunk on every third run. Loss must end in a clean rollback or a clean
// swap; corruption that lands must always roll back at verification.
// flightDepth > 0 attaches the telemetry flight recorder, so any failing
// verdict carries the device's persisted event history as a black-box dump.
func NewHealthSwapCampaign(seed int64, runs, flightDepth int) *SwapCampaign {
	d := examplespecs.NewDeployer(examplespecs.Health())
	return &SwapCampaign{
		Build: func(link monitor.Link, corrupt func(chunk int, data []byte) []byte) (*core.Framework, error) {
			return d.Deploy(continuous(func(cfg *core.Config) {
				withSwapConfig(cfg, link, corrupt)
				if flightDepth > 0 {
					cfg.Telemetry = true
					cfg.FlightDepth = flightDepth
				}
			}))
		},
		Keys:         storeKeys(d),
		Runs:         runs,
		Seed:         seed,
		DropProb:     0.3,
		DupProb:      0.2,
		CorruptEvery: 3,
	}
}
