package chaos

import "testing"

// explorePointAllocBudget is the allocation ceiling for one crash point of
// the health sweep: build the deployment on a pooled image, run it to a
// write-granularity power failure and through recovery, capture the
// outcome, judge the four oracles and release the image. The measured
// count is ~40. Rebuilding the health task graph per point would add ~28,
// and concatenating committed-region names ~29.
const explorePointAllocBudget = 48

func TestExplorePointAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	e := NewHealthExplorer(1, 0)
	f, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil || !rep.Completed {
		t.Fatalf("reference run failed: %v %+v", err, rep)
	}
	writes := int(f.MCU().Mem.Stats().Writes)
	ref := capture(f, rep, e.Keys)
	f.Release()

	point := func() {
		pr, err := e.explorePoint(writes/2, ref)
		if err != nil || len(pr.Failures) != 0 {
			t.Fatalf("crash point %d: %v %+v", writes/2, err, pr.Failures)
		}
	}
	point() // warm the image pool and one-time lazy state before measuring
	avg := testing.AllocsPerRun(20, point)
	t.Logf("health crash point: %.0f allocs (budget %d)", avg, explorePointAllocBudget)
	if avg > explorePointAllocBudget {
		t.Errorf("one health crash point allocates %.0f times, budget is %d — "+
			"per-point construction regressed; see docs/PERFORMANCE.md", avg, explorePointAllocBudget)
	}
}
