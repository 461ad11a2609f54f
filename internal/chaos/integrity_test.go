package chaos

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// With the self-healing layer on, the flip campaign must see zero
// uncontrolled crashes and a nonzero number of runs where the layer
// repaired the flip and the run finished normally (the PR's headline
// acceptance criterion).
func TestHealthFlipCampaignWithIntegrityRecovers(t *testing.T) {
	rep, err := NewFlipCampaign(examplespecs.Health(), 5, 40, true, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashed != 0 {
		t.Errorf("%d uncontrolled crashes with integrity on: %v", rep.Crashed, rep.CrashLogs)
	}
	if rep.Recovered == 0 {
		t.Errorf("no recovered runs; report:\n%s", rep.String())
	}
	if got := rep.Masked + rep.Recovered + rep.Degraded + rep.Detected + rep.Unrecoverable + rep.Crashed; got != rep.Runs {
		t.Errorf("outcome classes sum to %d, want %d", got, rep.Runs)
	}
	if rep.Integrity.ShadowRestores == 0 {
		t.Errorf("integrity stats recorded no shadow restores: %+v", rep.Integrity)
	}
}

// The guard CRCs commit in the same selector flip as the data they cover,
// so enabling the layer must not reopen any torn-state window: the
// exhaustive crash sweep (a power failure after every persistent write,
// including every guard-metadata write) passes all four oracles.
func TestHealthIntegrityExhaustiveCrashExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep in -short mode")
	}
	rep, err := NewExplorer(examplespecs.Health(), integrityConfig(100*simclock.Millisecond)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored == 0 || rep.Explored != rep.Writes {
		t.Fatalf("explored %d of %d write points", rep.Explored, rep.Writes)
	}
	for _, o := range []string{OracleAtomicity, OracleConsistency, OracleProgress, OracleIdempotence} {
		if rep.OraclePass[o] != rep.Explored || rep.OracleFail[o] != 0 {
			t.Errorf("oracle %s: pass %d fail %d over %d points", o, rep.OraclePass[o], rep.OracleFail[o], rep.Explored)
		}
	}
	if rep.Failed != 0 {
		for _, p := range rep.FailedPoints {
			t.Errorf("crash point %d: %+v", p.Point, p.Failures)
		}
	}
}

// The spec already guards the expensive peripherals (micSense and accel
// carry maxTries, send carries maxDuration), so starving those tasks is
// rescued by monitor actions alone. The uncovered livelock is a task with
// no spec property at all — bodyTemp. A boot budget that covers the boot
// sequence but not bodyTemp's ADC sample makes every boot replay bodyTemp,
// brown out inside it, and repeat forever; the seed runtime can only burn
// the whole reboot budget and report non-termination. The forward-progress
// watchdog must break the loop by escalating the stuck position to the
// monitor arbitration (skipPath) so the run terminates.
func TestWatchdogEndsBootLoop(t *testing.T) {
	starved := func(watchdogLimit, maxReboots int) (*core.Framework, *core.Report) {
		t.Helper()
		f, err := examplespecs.NewDeployer(examplespecs.Health()).Deploy(func(cfg *core.Config) {
			cfg.Supply = core.SupplyConfig{
				Kind:     core.SupplyFixedDelay,
				BudgetUJ: 5, // covers a boot replay, not bodyTemp's ADC sample
				Delay:    simclock.Second,
			}
			cfg.MaxReboots = maxReboots
			cfg.WatchdogLimit = watchdogLimit
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return f, rep
	}

	// Seed behaviour: without the watchdog the run boot-loops until the
	// reboot budget gives up and reports non-termination.
	_, base := starved(0, 80)
	if !base.NonTerminated {
		t.Fatalf("baseline did not livelock: %+v", base.RunResult)
	}

	// With the watchdog armed, each starved path is skipped after the limit
	// and the application terminates with no data — but it terminates, so a
	// real deployment would get its next recharge window instead of dying
	// at this position forever.
	f, rep := starved(5, 300)
	if rep.NonTerminated || !rep.Completed {
		t.Fatalf("watchdog run did not terminate: nonTerminated=%v completed=%v reboots=%d",
			rep.NonTerminated, rep.Completed, rep.Reboots)
	}
	if rep.ArtemisStats.WatchdogTrips == 0 {
		t.Error("watchdog never tripped")
	}
	if rep.Reboots >= 80 {
		t.Errorf("watchdog run used %d reboots — no better than the baseline cap", rep.Reboots)
	}
	if sc := f.Store().Get("sentCount"); sc != 0 {
		t.Errorf("sentCount = %v, want 0 (send is unaffordable at 5 µJ)", sc)
	}
}
