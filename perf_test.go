// Allocation-budget regression pins for the single-run hot path. Where the
// bench/benchjson pipeline gates ns/op and allocs/op between committed
// BENCH_*.json baselines, these tests fail `go test ./...` directly the
// moment a change blows the steady-state allocation budget — no benchmark
// run or comparison step required.
package bench

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/health"
)

// singleRunAllocBudget is the allocation ceiling for one complete health
// benchmark run under ARTEMIS on continuous power, with the spec compiled
// once and the NVM image pool warm (the BenchmarkSingleRunArtemis
// workload). The measured steady state is ~59 allocs/op; the budget leaves
// headroom for runtime-version noise while still catching any per-event or
// per-write allocation sneaking back into the dispatch path (hundreds per
// run at once) and per-region name concatenation coming back (~30).
const singleRunAllocBudget = 75

func TestSingleRunArtemisAllocBudget(t *testing.T) {
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
	run := func() {
		app := health.New()
		f, err := core.New(core.Config{
			System:    core.Artemis,
			Graph:     app.Graph,
			StoreKeys: health.Keys(),
			Compiled:  compiled,
			Supply:    core.SupplyConfig{Kind: core.SupplyContinuous},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Run()
		if err != nil || !rep.Completed {
			t.Fatalf("run failed: %v %+v", err, rep)
		}
		f.Release()
	}
	run() // warm the NVM pool and one-time lazy state before measuring
	avg := testing.AllocsPerRun(20, run)
	t.Logf("single ARTEMIS run: %.0f allocs (budget %d)", avg, singleRunAllocBudget)
	if avg > singleRunAllocBudget {
		t.Errorf("single ARTEMIS run allocates %.0f times, budget is %d — "+
			"the hot path regressed; profile with `go run ./cmd/artemis-sim -memprofile mem.out` "+
			"and see docs/PERFORMANCE.md", avg, singleRunAllocBudget)
	}
}
