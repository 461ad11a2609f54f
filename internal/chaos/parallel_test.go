package chaos

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/parallel"
)

// shuffleDispatch runs fn with the executor handing items to workers in
// reverse order — the adversarial schedule the determinism guarantee must
// survive.
func shuffleDispatch(t *testing.T, fn func()) {
	t.Helper()
	parallel.SetDispatchOrderForTesting(func(n int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = n - 1 - i
		}
		return perm
	})
	defer parallel.SetDispatchOrderForTesting(nil)
	fn()
}

// Workers is pinned to 4 rather than NumCPU: on a single-core runner
// NumCPU workers would silently collapse to the sequential path and the
// test would prove nothing.

func TestExplorerParallelDeterminism(t *testing.T) {
	serialRep, err := NewHealthExplorer(7, 60).Run()
	if err != nil {
		t.Fatal(err)
	}
	serial := serialRep.String()

	check := func(label string) {
		t.Helper()
		ex := NewHealthExplorer(7, 60)
		ex.Workers = 4
		rep, err := ex.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.String(); got != serial {
			t.Errorf("%s: parallel exploration diverges from serial\nserial:\n%s\nparallel:\n%s", label, serial, got)
		}
	}
	check("workers=4")
	shuffleDispatch(t, func() { check("workers=4 shuffled") })
}

func TestFlipCampaignParallelDeterminism(t *testing.T) {
	serialRep, err := NewFlipCampaign(examplespecs.Health(), 5, 12, false, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	serial := serialRep.String()

	check := func(label string) {
		t.Helper()
		camp := NewFlipCampaign(examplespecs.Health(), 5, 12, false, 0)
		camp.Workers = 4
		rep, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.String(); got != serial {
			t.Errorf("%s: parallel flip campaign diverges from serial\nserial:\n%s\nparallel:\n%s", label, serial, got)
		}
	}
	check("workers=4")
	shuffleDispatch(t, func() { check("workers=4 shuffled") })
}

func TestFullCampaignParallelDeterminism(t *testing.T) {
	serialRep, err := NewHealthCampaign(42, 40, 3, 6, false, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	serial := serialRep.String()

	camp := NewHealthCampaign(42, 40, 3, 6, false, 0)
	camp.Workers = 4
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.String(); got != serial {
		t.Errorf("parallel campaign diverges from serial\nserial:\n%s\nparallel:\n%s", serial, got)
	}
}
