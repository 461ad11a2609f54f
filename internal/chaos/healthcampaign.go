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
// passes" and "the campaign a user runs" are the same object.

// healthInvariant checks the application-level safety properties that must
// hold in every surviving execution, crash or not:
//
//   - exactly 10 temperature samples contribute to the average (the
//     collect: 10 contract — a lost or doubled sample breaks it),
//   - avgTemp stays within the sensor model's envelope around 36.6,
//   - between 2 and 3 sends: the maxDuration: 100ms timeliness guard may
//     legitimately skip one send when a crash stretches the send window,
//     but the collect monitors never allow fewer than 2 or more than 3.
func healthInvariant(ref, got Outcome) error {
	if got.Outputs["tempCount"] != 10 {
		return fmt.Errorf("tempCount = %v, want 10 (sample lost or double-counted)", got.Outputs["tempCount"])
	}
	if avg := got.Outputs["avgTemp"]; avg < 36.4 || avg > 36.8 {
		return fmt.Errorf("avgTemp = %v, want within [36.4, 36.8]", avg)
	}
	if sc := got.Outputs["sentCount"]; sc < 2 || sc > 3 {
		return fmt.Errorf("sentCount = %v, want 2 or 3", sc)
	}
	return nil
}

// NewHealthExplorer builds the exhaustive NVM-write-granularity crash
// explorer for the health benchmark on continuous power: every persistent
// write index gets its own crash run. Budget > 0 switches to seeded
// sampling of that many points.
func NewHealthExplorer(seed int64, budget int) *Explorer {
	e := NewExplorer(examplespecs.Health(), nil)
	e.Seed, e.Budget = seed, budget
	return e
}

// NewHealthRadioCampaign builds the lossy-radio campaign: health benchmark
// with remote monitors over a dropping, duplicating link. The invariant
// relaxes sentCount's lower bound — retry backoff adds latency, and every
// backoff wait can trip the maxDuration timeliness skip — but sample
// counting must stay exact: delivery loss must degrade to local
// evaluation, never lose or double-count an event.
func NewHealthRadioCampaign(seed int64, runs int) *RadioCampaign {
	d := newDeployer(examplespecs.Health())
	return &RadioCampaign{
		Build: func(link monitor.Link) (*core.Framework, error) {
			return d.deploy(func(cfg *core.Config) {
				cfg.RemoteMonitors = true
				cfg.RadioLink = link
			})
		},
		Keys: d.cfg.StoreKeys,
		Invariant: func(ref, got Outcome) error {
			if got.Outputs["tempCount"] != 10 {
				return fmt.Errorf("tempCount = %v, want 10 (event lost or double-counted)", got.Outputs["tempCount"])
			}
			if avg := got.Outputs["avgTemp"]; avg < 36.4 || avg > 36.8 {
				return fmt.Errorf("avgTemp = %v, want within [36.4, 36.8]", avg)
			}
			if sc := got.Outputs["sentCount"]; sc > 3 {
				return fmt.Errorf("sentCount = %v, want at most 3", sc)
			}
			return nil
		},
		Runs:     runs,
		Seed:     seed,
		DropProb: 0.3,
		DupProb:  0.2,
	}
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
	d := newDeployer(examplespecs.Health())
	return &SensorCampaign{
		Build: func(f SensorFault) (*core.Framework, error) {
			app := health.New()
			app.SenseTemp = f.Apply
			return d.deploy(func(cfg *core.Config) { cfg.Graph = app.Graph })
		},
		Keys: d.cfg.StoreKeys,
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

// integrityConfig enables the self-healing layer on a health deployment:
// guards on every persistent surface, a fast scrub schedule (so mid-run
// corruption is found within the run), and the forward-progress watchdog.
func integrityConfig(scrub simclock.Duration) func(cfg *core.Config) {
	return func(cfg *core.Config) {
		cfg.Integrity = true
		cfg.ScrubInterval = scrub
		cfg.WatchdogLimit = 8
	}
}

// NewHealthFlipCampaign builds the NVM soft-error campaign: random single
// bit flips into any owner's persistent allocations mid-run, on an
// intermittent supply — a flipped FRAM bit only becomes visible when a
// reboot reloads the committed image, so the run must actually reboot. The
// runtime must never crash uncontrolled, with or without the integrity
// layer; with it, flips that land in a committed image are repaired from
// the shadow (Recovered) or flagged beyond repair (Unrecoverable).
// flightDepth > 0 additionally enables telemetry with an NVM flight recorder
// of that depth, so every Unrecoverable verdict carries the device's last
// persisted events in the report.
func NewHealthFlipCampaign(seed int64, runs int, withIntegrity bool, flightDepth int) *FlipCampaign {
	d := newDeployer(examplespecs.Health())
	return &FlipCampaign{
		Build: func() (*core.Framework, error) {
			return d.deploy(func(cfg *core.Config) {
				cfg.Supply = core.SupplyConfig{
					Kind:     core.SupplyFixedDelay,
					BudgetUJ: 800,
					Delay:    simclock.Second,
				}
				if withIntegrity {
					integrityConfig(50 * simclock.Millisecond)(cfg)
				}
				if flightDepth > 0 {
					cfg.Telemetry = true
					cfg.FlightDepth = flightDepth
				}
			})
		},
		Keys:          d.cfg.StoreKeys,
		Owner:         "",
		Runs:          runs,
		Seed:          seed,
		WithIntegrity: withIntegrity,
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
		Radio:  NewHealthRadioCampaign(seed, radioRuns),
		Sensor: NewHealthSensorCampaign(),
		Flip:   NewHealthFlipCampaign(seed, flipRuns, withIntegrity, flightDepth),
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
	d := newDeployer(examplespecs.Health())
	return &SwapCampaign{
		Build: func(link monitor.Link, corrupt func(chunk int, data []byte) []byte) (*core.Framework, error) {
			return d.deploy(func(cfg *core.Config) {
				withSwapConfig(cfg, link, corrupt)
				if flightDepth > 0 {
					cfg.Telemetry = true
					cfg.FlightDepth = flightDepth
				}
			})
		},
		Keys: d.cfg.StoreKeys,
		Invariant: func(ref, got Outcome) error {
			// Version-agnostic: both spec revisions enforce the same sample
			// counting; a rolled-back run finishes on v1, a swapped one on
			// v2, and both must complete the application intact.
			return healthInvariant(ref, got)
		},
		Runs:         runs,
		Seed:         seed,
		DropProb:     0.3,
		DupProb:      0.2,
		CorruptEvery: 3,
	}
}
