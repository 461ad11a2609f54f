package experiments

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/chaos"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// RecoveryResult quantifies the self-healing layer and the forward-progress
// watchdog on the health benchmark — the robustness extension the paper's
// adaptability story motivates but does not evaluate: what FRAM soft errors
// and spec-blind livelocks cost, and what the guards buy back.
type RecoveryResult struct {
	// Baseline and Guarded are the same seeded bit-flip campaign with the
	// integrity layer off and on: the off run shows flips surviving as
	// silent data corruption (masked/degraded); the on run shows them
	// repaired from the shadow image (recovered) or flagged (unrecoverable),
	// with zero uncontrolled crashes either way.
	Baseline *chaos.FlipReport
	Guarded  *chaos.FlipReport

	// Scrub overhead on a fault-free intermittent run: the energy the CRC
	// verification schedule costs as a fraction of the whole run.
	ScrubChecks    int
	ScrubEnergyPct float64

	// NVM cost of the protection (the Table-2 delta): GuardFRAM is the
	// integrity owner's persistent allocation (one double-buffered 8-byte
	// CRC per guarded region), WatchdogFRAM the two control words the
	// watchdog adds to the runtime's committed region (two images each).
	GuardFRAM    int
	WatchdogFRAM int

	// The livelock demo: a 5 µJ boot budget covers the boot sequence but
	// not bodyTemp's ADC sample — a task the Figure-5 spec attaches no
	// property to, so no monitor action can rescue it. The seed runtime
	// boot-loops until the reboot budget declares non-termination; the
	// watchdog escalates the stuck position through action arbitration and
	// the run terminates.
	Starved       Outcome // WatchdogLimit 0: boot-loops forever
	Rescued       Outcome // WatchdogLimit 5: terminates, starved paths skipped
	WatchdogTrips int
}

// Recovery runs the fault-recovery evaluation: flip campaigns with and
// without the integrity layer, the scrub-overhead measurement, and the
// watchdog livelock demo.
func Recovery(o Options) (*RecoveryResult, error) {
	o = o.withDefaults()
	res := &RecoveryResult{}

	// The five measurements are independent simulations, so they fan out
	// through the executor like any sweep; each step writes a disjoint set
	// of result fields. The flip campaigns inherit the worker count and
	// additionally parallelise their own runs.
	steps := []func() error{
		func() error {
			camp := chaos.NewFlipCampaign(examplespecs.Health(), 5, 40, false, 0)
			camp.Workers = o.Workers
			rep, err := camp.Run()
			if err != nil {
				return fmt.Errorf("recovery (baseline flips): %w", err)
			}
			res.Baseline = rep
			return nil
		},
		func() error {
			camp := chaos.NewFlipCampaign(examplespecs.Health(), 5, 40, true, 0)
			camp.Workers = o.Workers
			rep, err := camp.Run()
			if err != nil {
				return fmt.Errorf("recovery (guarded flips): %w", err)
			}
			res.Guarded = rep
			return nil
		},
		func() error {
			// Fault-free guarded run on the paper's 800 µJ supply: what the
			// scrub schedule costs when there is nothing to repair.
			rep, _, err := runHealth(core.Artemis, fixedDelay(o.BudgetUJ, simclock.Second), o, func(cfg *core.Config) {
				cfg.Integrity = true
				cfg.ScrubInterval = 50 * simclock.Millisecond
			})
			if err != nil {
				return fmt.Errorf("recovery (clean guarded run): %w", err)
			}
			if rep.Integrity != nil {
				res.ScrubChecks = rep.Integrity.Checks
			}
			if total := float64(rep.Energy); total > 0 {
				res.ScrubEnergyPct = 100 * float64(rep.Breakdown[device.CompIntegrity].Energy) / total
			}
			res.GuardFRAM = rep.Footprints["integrity"]
			// Two watchdog words in the runtime's committed control region,
			// double buffered: position and consecutive-failure count.
			res.WatchdogFRAM = 2 * 8 * 2
			return nil
		},
		func() error {
			var err error
			_, res.Starved, err = runHealth(core.Artemis, fixedDelay(5, simclock.Second), o, nil)
			if err != nil {
				return fmt.Errorf("recovery (starved baseline): %w", err)
			}
			return nil
		},
		func() error {
			wdRep, rescued, err := runHealth(core.Artemis, fixedDelay(5, simclock.Second), o, func(cfg *core.Config) {
				cfg.WatchdogLimit = 5
				cfg.MaxReboots = 3 * o.NonTermReboots
			})
			if err != nil {
				return fmt.Errorf("recovery (watchdog rescue): %w", err)
			}
			res.Rescued = rescued
			if wdRep.ArtemisStats != nil {
				res.WatchdogTrips = wdRep.ArtemisStats.WatchdogTrips
			}
			return nil
		},
	}
	if _, err := sweep(o, steps, func(_ int, step func() error) (struct{}, error) {
		return struct{}{}, step()
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// TableRecovery builds the watchdog-demo table; the flip campaigns render
// through their own reports.
func TableRecovery(r *RecoveryResult) *trace.Table {
	t := trace.NewTable(
		"Recovery — starved-task livelock (5 µJ boots, task with no spec property)",
		"runtime", "outcome", "reboots", "total time")
	t.AddRow("ARTEMIS (seed)",
		map[bool]string{true: "non-terminated", false: "completed"}[r.Starved.NonTerminated],
		fmt.Sprintf("%d", r.Starved.Reboots),
		formatOutcomeTime(r.Starved))
	t.AddRow("ARTEMIS + watchdog",
		fmt.Sprintf("completed (%d paths sacrificed)", r.WatchdogTrips),
		fmt.Sprintf("%d", r.Rescued.Reboots),
		formatOutcomeTime(r.Rescued))
	return t
}

// RenderRecovery prints the full fault-recovery evaluation.
func RenderRecovery(r *RecoveryResult) string {
	s := "Recovery — NVM soft errors, self-healing off vs on\n"
	s += r.Baseline.String()
	s += r.Guarded.String()
	s += fmt.Sprintf("scrub:      %d CRC checks on a clean run, %.2f%% of run energy; footprint %d B guards + %d B watchdog\n",
		r.ScrubChecks, r.ScrubEnergyPct, r.GuardFRAM, r.WatchdogFRAM)
	s += "\n" + TableRecovery(r).Render()
	return s
}
