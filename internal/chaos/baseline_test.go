package chaos

import (
	"fmt"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// baselineExplorer is the exhaustive write-granularity crash explorer for
// the health benchmark on one of the baseline runtimes, with the runtime's
// evaluation property set, under the given supply. Every output must equal
// the reference, and the health counters must count each task once.
func baselineExplorer(sys core.System, supply core.SupplyConfig) *Explorer {
	e := explorerOf(baselineDeployer(sys, supply), examplespecs.Health().Counters)
	e.Workers = 2
	return e
}

// baselineDeployer deploys the health benchmark as baselineExplorer does.
func baselineDeployer(sys core.System, supply core.SupplyConfig) *examplespecs.Deployer {
	return examplespecs.NewDeployer(examplespecs.Health()).With(continuous(func(cfg *core.Config) {
		cfg.System, cfg.Compiled, cfg.Supply = sys, nil, supply
		switch sys {
		case core.Mayfly:
			cfg.Constraints = mayfly.HealthConstraints()
		case core.Ocelot:
			cfg.FreshnessBounds = freshness.HealthBounds()
		}
	}))
}

// TestOcelotExhaustiveCrashExploration sweeps every persistent write of the
// Ocelot runtime on continuous power and on two charging delays. Its
// outputs, freshness stamps and cursor commit in one selector flip, so all
// four oracles must pass at every point: a crashed run ends like the
// continuous one, done word included.
func TestOcelotExhaustiveCrashExploration(t *testing.T) {
	for _, c := range []struct {
		name   string
		supply core.SupplyConfig
	}{
		{"continuous", core.SupplyConfig{Kind: core.SupplyContinuous}},
		{"980uJ-6m", core.SupplyConfig{Kind: core.SupplyFixedDelay, BudgetUJ: 980, Delay: 6 * simclock.Minute}},
		{"800uJ-1m", core.SupplyConfig{Kind: core.SupplyFixedDelay, BudgetUJ: 800, Delay: simclock.Minute}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, err := baselineExplorer(core.Ocelot, c.supply).Run()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("\n%s", rep)
			if rep.Explored != rep.Writes || rep.Writes == 0 {
				t.Fatalf("explored %d of %d write points", rep.Explored, rep.Writes)
			}
			if rep.Failed != 0 {
				t.Fatalf("%d of %d crash points failed an oracle:\n%s", rep.Failed, rep.Explored, rep)
			}
		})
	}
}

// TestMayflyCrashExplorationFindsDoubleCommit pins what the exhaustive sweep
// finds in the Mayfly baseline on continuous power. Mayfly commits a task's
// outputs and its cursor move separately, so a power failure between the
// two commits re-runs the task against its own committed outputs: one more
// temperature sample is counted (tempCount 11 instead of 10). This is the
// store/control double-commit window that ARTEMIS closed by committing both
// in one selector flip (docs/CHAOS.md). Atomicity and progress hold at
// every point; only idempotence and the consistency invariant fail.
func TestMayflyCrashExplorationFindsDoubleCommit(t *testing.T) {
	rep, err := baselineExplorer(core.Mayfly, core.SupplyConfig{Kind: core.SupplyContinuous}).Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if rep.Explored != rep.Writes {
		t.Fatalf("explored %d of %d write points", rep.Explored, rep.Writes)
	}
	got := fmt.Sprintf("points=%d failed=%d atomicity=%d progress=%d idempotence=%d consistency=%d",
		rep.Explored, rep.Failed, rep.OracleFail[OracleAtomicity], rep.OracleFail[OracleProgress],
		rep.OracleFail[OracleIdempotence], rep.OracleFail[OracleConsistency])
	const want = "points=151 failed=49 atomicity=0 progress=0 idempotence=49 consistency=49"
	if got != want {
		t.Fatalf("sweep found %s\nwant %s\n%s", got, want, rep)
	}
	for _, p := range rep.FailedPoints {
		for _, f := range p.Failures {
			if f.Oracle == OracleIdempotence && f.Detail != "tempCount = 11, reference 10" {
				t.Errorf("point %d: %s", p.Point, f.Detail)
			}
		}
	}
}
