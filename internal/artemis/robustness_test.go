package artemis

import (
	"math/rand"
	"testing"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// The Figure-12 headline must not be an artefact of the 1 MHz operating
// point: at 8 MHz, ARTEMIS still completes under a 6-minute charging delay
// (Mayfly's side is internal/mayfly TestEightMHzProfileNonTerminates).
func TestEightMHzProfileCompletes(t *testing.T) {
	prof := device.MSP430FR5994At8MHz()
	r := newRigOn(t, testbed{prof: &prof}, fixedSupply(t, 800, 6*simclock.Minute), 36.6)
	res, err := r.dev.Run(r.rt.Boot)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("ARTEMIS at 8 MHz: %+v", res)
	}
}

func TestClockJitterRobustness(t *testing.T) {
	// A ±5% off-period estimation error around a 4-minute charging delay
	// keeps the 5-minute MITD satisfiable; the run must still complete
	// without path skips. (Near the boundary, jitter could flip decisions;
	// 4 minutes leaves a full minute of margin.)
	clock := &simclock.Clock{OffJitterPPM: 5e4, Rand: rand.New(rand.NewSource(7))}
	r := newRigOn(t, testbed{clock: clock}, fixedSupply(t, 800, 4*simclock.Minute), 36.6)
	res, err := r.dev.Run(r.rt.Boot)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("jittered run failed: %+v", res)
	}
	if st := r.rt.Stats(); st.PathSkips != 0 {
		t.Fatalf("PathSkips = %d with 1-minute margin", st.PathSkips)
	}
}
