package chaos

import "testing"

// explorePointAllocBudget is the allocation ceiling for one crash point of
// the health sweep: re-arm the deployment the previous point released,
// resume it from the recorded crash state, run it through recovery,
// capture the outcome, judge the four oracles and release the deployment.
// The measured count is 9. A point that builds its deployment with
// core.New again, instead of re-arming a released one, costs about 20
// more, which the budget catches.
const explorePointAllocBudget = 16

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
	rec, err := f.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Release()
	rep, err := f.Run()
	if err != nil || !rep.Completed {
		t.Fatalf("reference run failed: %v %+v", err, rep)
	}
	ref := capture(f, rep, e.Keys)
	f.Release()

	k := rec.Writes() / 2
	point := func() {
		pr, err := e.explorePoint(k, ref, rec, nil)
		if err != nil || len(pr.Failures) != 0 {
			t.Fatalf("crash point %d: %v %+v", k, err, pr.Failures)
		}
	}
	point() // warm the deployer's pool and one-time lazy state before measuring
	avg := testing.AllocsPerRun(20, point)
	t.Logf("resumed health crash point: %.0f allocs (budget %d)", avg, explorePointAllocBudget)
	if avg > explorePointAllocBudget {
		t.Errorf("one resumed health crash point allocates %.0f times, budget is %d — "+
			"per-point construction regressed; see docs/PERFORMANCE.md", avg, explorePointAllocBudget)
	}
}
