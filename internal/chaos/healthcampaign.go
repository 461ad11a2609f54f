package chaos

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// This file wires the chaos engine to the paper's health benchmark — the
// shared campaign definitions the CLI (`artemis-sim --chaos`) and the test
// suite both run. Keeping them here means "the campaign the CI smoke test
// passes" and "the campaign a user runs" are the same object.

// healthKeys are the outputs the oracles compare across runs.
var healthKeys = []string{"tempCount", "avgTemp", "sentCount", "micData", "accelData", "heartRate"}

// healthExactKeys must be bit-identical to the reference after any single
// crash: counters and one-shot flags no crash may lose or double-count.
var healthExactKeys = []string{"tempCount", "micData", "accelData"}

// buildHealth deploys a fresh health app on continuous power; mut, when
// non-nil, adjusts the configuration or the app before core.New.
func buildHealth(mut func(cfg *core.Config, app *health.App)) (*core.Framework, error) {
	return deployHealth(health.New(), health.Keys(), mut)
}

// sharedHealthBuild returns a Build function for an explorer that deploys
// the health app with its configuration adjusted by mut (nil for none). The
// app and its store keys are built once and shared by every deployment the
// function builds, concurrent workers included, the way
// health.CompiledShared shares the compiled spec: the task graph is
// immutable and the tasks only read their App, so building them per crash
// point would only make garbage (about a quarter of a point's heap
// allocations). mut therefore gets the configuration only.
func sharedHealthBuild(mut func(cfg *core.Config)) func() (*core.Framework, error) {
	app, keys := health.New(), health.Keys()
	var adjust func(cfg *core.Config, _ *health.App)
	if mut != nil {
		adjust = func(cfg *core.Config, _ *health.App) { mut(cfg) }
	}
	return func() (*core.Framework, error) { return deployHealth(app, keys, adjust) }
}

// deployHealth deploys app with the given store keys on continuous power.
func deployHealth(app *health.App, keys []string, mut func(cfg *core.Config, app *health.App)) (*core.Framework, error) {
	// The compiled Figure-5 program is immutable and process-wide; sharing
	// it avoids re-parsing the spec for each of the hundreds-to-thousands
	// of frameworks a campaign builds, and is safe for concurrent workers.
	res, err := health.CompiledShared()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		System:    core.Artemis,
		Graph:     app.Graph,
		StoreKeys: keys,
		Compiled:  res,
		Supply:    core.SupplyConfig{Kind: core.SupplyContinuous},
	}
	if mut != nil {
		mut(&cfg, app)
	}
	return core.New(cfg)
}

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
	return &Explorer{
		Build:     sharedHealthBuild(nil),
		Keys:      healthKeys,
		ExactKeys: healthExactKeys,
		Invariant: healthInvariant,
		Seed:      seed,
		Budget:    budget,
	}
}

// NewHealthRadioCampaign builds the lossy-radio campaign: health benchmark
// with remote monitors over a dropping, duplicating link. The invariant
// relaxes sentCount's lower bound — retry backoff adds latency, and every
// backoff wait can trip the maxDuration timeliness skip — but sample
// counting must stay exact: delivery loss must degrade to local
// evaluation, never lose or double-count an event.
func NewHealthRadioCampaign(seed int64, runs int) *RadioCampaign {
	return &RadioCampaign{
		Build: func(link monitor.Link) (*core.Framework, error) {
			return buildHealth(func(cfg *core.Config, _ *health.App) {
				cfg.RemoteMonitors = true
				cfg.RadioLink = link
			})
		},
		Keys: healthKeys,
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
	return &SensorCampaign{
		Build: func(f SensorFault) (*core.Framework, error) {
			return buildHealth(func(_ *core.Config, app *health.App) {
				app.SenseTemp = f.Apply
			})
		},
		Keys: healthKeys,
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

// withIntegrityConfig enables the self-healing layer on a health
// deployment: guards on every persistent surface, a fast scrub schedule
// (so mid-run corruption is found within the run), and the forward-progress
// watchdog.
func withIntegrityConfig(cfg *core.Config) {
	cfg.Integrity = true
	cfg.ScrubInterval = 50 * simclock.Millisecond
	cfg.WatchdogLimit = 8
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
	return &FlipCampaign{
		Build: func() (*core.Framework, error) {
			return buildHealth(func(cfg *core.Config, _ *health.App) {
				cfg.Supply = core.SupplyConfig{
					Kind:     core.SupplyFixedDelay,
					BudgetUJ: 800,
					Delay:    simclock.Second,
				}
				if withIntegrity {
					withIntegrityConfig(cfg)
				}
				if flightDepth > 0 {
					cfg.Telemetry = true
					cfg.FlightDepth = flightDepth
				}
			})
		},
		Keys:          healthKeys,
		Owner:         "",
		Runs:          runs,
		Seed:          seed,
		WithIntegrity: withIntegrity,
	}
}

// NewHealthIntegrityExplorer is the exhaustive crash explorer with the
// self-healing layer enabled: every guard CRC commits in the same selector
// flip as its data, so a power failure after any single write must leave
// guard and data consistent — all four oracles must stay as clean as the
// unguarded sweep.
func NewHealthIntegrityExplorer(seed int64, budget int) *Explorer {
	return &Explorer{
		Build: sharedHealthBuild(func(cfg *core.Config) {
			cfg.Integrity = true
			cfg.ScrubInterval = 100 * simclock.Millisecond
			cfg.WatchdogLimit = 8
		}),
		Keys:      healthKeys,
		ExactKeys: healthExactKeys,
		Invariant: healthInvariant,
		Seed:      seed,
		Budget:    budget,
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
	crash := NewHealthExplorer(seed, crashBudget)
	if withIntegrity {
		crash = NewHealthIntegrityExplorer(seed, crashBudget)
	}
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

// NewHealthSwapExplorer is the swap-atomicity crash explorer: the health
// benchmark with a mid-run OTA update of the spec (v1 -> v2, bounds
// loosened, FSM shape preserved), explored at single-NVM-BYTE granularity
// across exactly the byte window the swap touched — transfer staging,
// chunk commits, and the one-byte activation selector flip. The transfer
// link is perfect: a lossy link would make a crashed run roll back where
// the reference swapped, turning legitimate divergence into false oracle
// failures (SwapCampaign owns the faulted-transfer space). The sixth
// oracle asserts the recovered device is on exactly the old or exactly
// the new version — never a hybrid — with a verifying image, a settled
// transfer, and the swap landing exactly once.
func NewHealthSwapExplorer(seed int64, budget int) *Explorer {
	return &Explorer{
		Build: sharedHealthBuild(func(cfg *core.Config) {
			withSwapConfig(cfg, nil, nil)
		}),
		Keys:      healthKeys,
		ExactKeys: healthExactKeys,
		Invariant: healthInvariant,
		Seed:      seed,
		Budget:    budget,
		Bytes:     true,
		Window: func(f *core.Framework) (int64, int64, bool) {
			return f.OTA().SwapWindow()
		},
		PostOracles: []string{OracleSwap},
		PostCheck: func(f *core.Framework, ref, got Outcome) []OracleFailure {
			mgr := f.OTA()
			if mgr == nil {
				return []OracleFailure{{OracleSwap, "no OTA manager on the recovered framework"}}
			}
			var fails []OracleFailure
			if err := mgr.VerifyActive(); err != nil {
				fails = append(fails, OracleFailure{OracleSwap, err.Error()})
			}
			v := mgr.ActiveVersion()
			if v != 2 {
				fails = append(fails, OracleFailure{OracleSwap,
					fmt.Sprintf("terminal version %d, want 2 (perfect link: the update must land)", v)})
			}
			if iv := mgr.InstalledVersion(); iv != v {
				fails = append(fails, OracleFailure{OracleSwap,
					fmt.Sprintf("installed deployment v%d but active image v%d", iv, v)})
			}
			if mgr.TransferInFlight() {
				fails = append(fails, OracleFailure{OracleSwap, "staged transfer still in flight at completion"})
			}
			st := mgr.Stats()
			if st.Swaps != 1 || st.Rollbacks != 0 {
				fails = append(fails, OracleFailure{OracleSwap,
					fmt.Sprintf("%d swaps, %d rollbacks (%s); want exactly one clean swap", st.Swaps, st.Rollbacks, st.LastRollback)})
			}
			if st.MissedEvents != 0 {
				fails = append(fails, OracleFailure{OracleSwap,
					fmt.Sprintf("swap missed %d events", st.MissedEvents)})
			}
			return fails
		},
	}
}

// NewHealthSwapCampaign is the faulted-transfer reprogramming campaign:
// chunk loss and duplication on every run, plus an in-flight corrupted
// chunk on every third run. Loss must end in a clean rollback or a clean
// swap; corruption that lands must always roll back at verification.
// flightDepth > 0 attaches the telemetry flight recorder, so any failing
// verdict carries the device's persisted event history as a black-box dump.
func NewHealthSwapCampaign(seed int64, runs, flightDepth int) *SwapCampaign {
	return &SwapCampaign{
		Build: func(link monitor.Link, corrupt func(chunk int, data []byte) []byte) (*core.Framework, error) {
			return buildHealth(func(cfg *core.Config, _ *health.App) {
				withSwapConfig(cfg, link, corrupt)
				if flightDepth > 0 {
					cfg.Telemetry = true
					cfg.FlightDepth = flightDepth
				}
			})
		},
		Keys: healthKeys,
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

// NewHealthTelemetryExplorer is the exhaustive crash explorer with the
// telemetry flight recorder attached: the recorder's NVM ring commits
// through the same two-phase protocol as everything else, so a crash after
// any single persistent write must leave the committed ring decodable and
// its sequence numbers intact. The extra "flight" oracle checks exactly
// that on every surviving run, proving the recorder itself is crash-safe
// and never perturbs the four base oracles.
func NewHealthTelemetryExplorer(seed int64, budget int) *Explorer {
	return &Explorer{
		Build: sharedHealthBuild(func(cfg *core.Config) {
			cfg.Telemetry = true
			cfg.FlightDepth = 32
		}),
		Keys:        healthKeys,
		ExactKeys:   healthExactKeys,
		Invariant:   healthInvariant,
		Seed:        seed,
		Budget:      budget,
		PostOracles: []string{"flight"},
		PostCheck: func(f *core.Framework, ref, got Outcome) []OracleFailure {
			tel := f.Telemetry()
			if tel == nil {
				return []OracleFailure{{Oracle: "flight", Detail: "telemetry tracer missing from instrumented build"}}
			}
			if err := tel.VerifyFlight(); err != nil {
				return []OracleFailure{{Oracle: "flight", Detail: err.Error()}}
			}
			return nil
		},
	}
}
