// Allocation-budget regression pins for the single-run hot path. Where the
// bench/benchjson pipeline gates ns/op and allocs/op between committed
// BENCH_*.json baselines, these tests fail `go test ./...` directly the
// moment a change blows the steady-state allocation budget — no benchmark
// run or comparison step required.
package bench

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// TestSingleRunAllocBudget pins the allocation ceiling for one complete
// health benchmark run on each runtime, with the spec compiled once and the
// NVM image pool warm (the BenchmarkSingleRun* workloads). Each budget
// leaves headroom over the measured steady state for runtime-version noise
// while still catching any per-event or per-write allocation sneaking back
// into the dispatch path (hundreds per run at once) and per-region name
// concatenation coming back (~30). Mayfly also runs at the 6-minute
// charging delay of Figure 12, where it never terminates: the run ends at
// the 100-reboot budget, so the budget covers the reboot path too.
func TestSingleRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	compiled, err := health.CompiledShared()
	if err != nil {
		t.Fatal(err)
	}
	continuous := core.SupplyConfig{Kind: core.SupplyContinuous}
	for _, c := range []struct {
		name     string
		sys      core.System
		supply   core.SupplyConfig
		complete bool
		measured int // steady state when the budget was set
		budget   int
	}{
		{"ARTEMIS", core.Artemis, continuous, true, 59, 75},
		{"Mayfly", core.Mayfly, continuous, true, 129, 150},
		{"Mayfly-6m", core.Mayfly, core.SupplyConfig{Kind: core.SupplyFixedDelay, BudgetUJ: 800, Delay: 6 * simclock.Minute}, false, 230, 270},
		{"Ocelot", core.Ocelot, continuous, true, 60, 75},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func() {
				app := health.New()
				cfg := core.Config{
					System:     c.sys,
					Graph:      app.Graph,
					StoreKeys:  health.Keys(),
					Supply:     c.supply,
					MaxReboots: 100,
				}
				switch c.sys {
				case core.Artemis:
					cfg.Compiled = compiled
				case core.Mayfly:
					cfg.Constraints = mayfly.HealthConstraints()
				case core.Ocelot:
					cfg.FreshnessBounds = freshness.HealthBounds()
				}
				f, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := f.Run()
				if err != nil || rep.Completed != c.complete {
					t.Fatalf("run: err %v, completed %v, want %v", err, rep.Completed, c.complete)
				}
				f.Release()
			}
			run() // warm the NVM pool and one-time lazy state before measuring
			avg := testing.AllocsPerRun(20, run)
			t.Logf("single %s run: %.0f allocs (measured %d when budgeted, budget %d)", c.name, avg, c.measured, c.budget)
			if avg > float64(c.budget) {
				t.Errorf("single %s run allocates %.0f times, budget is %d — "+
					"the hot path regressed; profile with `go run ./cmd/artemis-sim -memprofile mem.out` "+
					"and see docs/PERFORMANCE.md", c.name, avg, c.budget)
			}
		})
	}
}
