package chaos

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/parallel"
)

// swapExplorer is the swap-atomicity crash explorer: the health benchmark
// with a mid-run OTA update of the spec (v1 -> v2, bounds loosened, FSM
// shape preserved), explored at single-NVM-BYTE granularity across exactly
// the byte window the swap touched — transfer staging, chunk commits, and
// the one-byte activation selector flip. The transfer link is perfect: a
// lossy link would make a crashed run roll back where the reference
// swapped, turning legitimate divergence into false oracle failures
// (SwapCampaign owns the faulted-transfer space). The swap oracle asserts
// the recovered device is on exactly the old or exactly the new version —
// never a hybrid — with a verifying image, a settled transfer, and the
// swap landing exactly once.
func swapExplorer(seed int64, budget int) *Explorer {
	e := NewExplorer(examplespecs.Health(), func(cfg *core.Config) { withSwapConfig(cfg, nil, nil) })
	e.Seed, e.Budget = seed, budget
	e.Bytes = true
	e.Window = func(f *core.Framework) (int64, int64, bool) { return f.OTA().SwapWindow() }
	e.PostOracles = []string{OracleSwap}
	e.PostCheck = func(f *core.Framework, ref, got Outcome) []OracleFailure {
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
	}
	return e
}

// TestSwapExplorerSampled crashes the device at sampled NVM bytes inside
// the reprogramming window — mid-chunk-commit, mid-staging, around the
// activation flip — and requires all six oracles clean: every recovered
// run resumes, finishes the update exactly once, and ends on a verified
// v2 image.
func TestSwapExplorerSampled(t *testing.T) {
	ex := swapExplorer(1, 120)
	ex.Workers = 4
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ByteMode || rep.WindowHi == 0 {
		t.Fatalf("explorer not in windowed byte mode: %+v", rep)
	}
	if rep.Explored != 120 {
		t.Fatalf("explored %d points, want 120", rep.Explored)
	}
	if rep.Failed != 0 {
		t.Fatalf("swap exploration failed:\n%s", rep)
	}
	if rep.OraclePass[OracleSwap] != rep.Explored {
		t.Fatalf("swap oracle passed %d of %d", rep.OraclePass[OracleSwap], rep.Explored)
	}
	if !strings.Contains(rep.String(), "byte points") {
		t.Fatalf("report does not announce byte granularity:\n%s", rep)
	}
}

// TestSwapExplorerActivationFlip exhaustively crashes every byte of the
// window's tail — the final chunk commit, the activation group commit, and
// the one-byte selector flip that IS the swap. A failure on either side of
// that byte must recover onto exactly one version.
func TestSwapExplorerActivationFlip(t *testing.T) {
	ex := swapExplorer(1, 0)
	ex.Workers = 4
	inner := ex.Window
	ex.Window = func(f *core.Framework) (int64, int64, bool) {
		lo, hi, ok := inner(f)
		if tail := hi - 240; tail > lo {
			lo = tail
		}
		return lo, hi, ok
	}
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored != rep.WindowHi-rep.WindowLo+1 {
		t.Fatalf("tail sweep not exhaustive: explored %d of [%d, %d]",
			rep.Explored, rep.WindowLo, rep.WindowHi)
	}
	if rep.Failed != 0 {
		t.Fatalf("activation-flip exploration failed:\n%s", rep)
	}
}

// TestSwapExplorerExhaustiveDeep sweeps EVERY byte of the reprogramming
// window — one crash-reboot run per NVM byte the swap writes, a few hundred
// thousand runs. This is the weekly CI deep-chaos configuration; set
// ARTEMIS_DEEP_CHAOS=1 to run it locally.
func TestSwapExplorerExhaustiveDeep(t *testing.T) {
	if os.Getenv("ARTEMIS_DEEP_CHAOS") == "" {
		t.Skip("exhaustive swap sweep runs in the weekly CI job; set ARTEMIS_DEEP_CHAOS=1 to run")
	}
	ex := swapExplorer(1, 0)
	ex.Workers = parallel.DefaultWorkers()
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if rep.Explored != rep.WindowHi-rep.WindowLo+1 {
		t.Fatalf("sweep not exhaustive: explored %d of [%d, %d]", rep.Explored, rep.WindowLo, rep.WindowHi)
	}
	if rep.Failed != 0 {
		t.Fatalf("exhaustive swap exploration failed:\n%s", rep)
	}
}

// TestSwapCampaignFlightRecorder: an instrumented campaign must pass with
// the recorder attached (the ring commits through the same protocol as
// everything else), and clean verdicts never carry a dump.
func TestSwapCampaignFlightRecorder(t *testing.T) {
	camp := NewHealthSwapCampaign(3, 6, 32)
	camp.Workers = 4
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("instrumented swap campaign failed:\n%s", rep)
	}
	for _, res := range rep.Results {
		if res.FlightDump != "" {
			t.Fatalf("passing run carries a flight dump:\n%s", res.FlightDump)
		}
	}
}

// TestSwapCampaignFaultedTransfers runs the reprogramming campaign under
// chunk loss, duplication, and periodic in-flight corruption: every run
// must terminate cleanly swapped or cleanly rolled back — never hybrid —
// and corrupted bundles must never activate.
func TestSwapCampaignFaultedTransfers(t *testing.T) {
	camp := NewHealthSwapCampaign(3, 9, 0)
	camp.Workers = 4
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("swap campaign failed:\n%s", rep)
	}
	if rep.Swapped+rep.RolledBack != rep.Runs {
		t.Fatalf("%d swapped + %d rolled back != %d runs", rep.Swapped, rep.RolledBack, rep.Runs)
	}
	// Runs 0, 3, 6 carry a poisoned chunk: whether the poison or a lost
	// chunk aborts first, none of them may activate.
	if rep.RolledBack < 3 {
		t.Fatalf("only %d rollbacks; the 3 corruption runs must all roll back", rep.RolledBack)
	}
	if rep.BaseVersion != 1 || rep.NewVersion != 2 {
		t.Fatalf("versions %d -> %d, want 1 -> 2", rep.BaseVersion, rep.NewVersion)
	}
}

// TestSwapCampaignDeterministic re-runs the same campaign at different
// worker counts; the reports must be byte-identical.
func TestSwapCampaignDeterministic(t *testing.T) {
	serial, err := NewHealthSwapCampaign(5, 6, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	par := NewHealthSwapCampaign(5, 6, 0)
	par.Workers = 4
	parRep, err := par.Run()
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parRep.String() {
		t.Fatalf("worker count changed the report:\n--- serial\n%s--- parallel\n%s", serial, parRep)
	}
}
