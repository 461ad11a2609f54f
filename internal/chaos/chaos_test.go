package chaos

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/health"
)

// The tentpole acceptance test: exhaustive NVM-write-granularity crash
// exploration of the health benchmark. Every persistent write the
// reference run performs gets its own crash run, and all four recovery
// oracles must pass at every point.
func TestHealthExhaustiveCrashExploration(t *testing.T) {
	rep, err := NewHealthExplorer(1, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Writes < 1000 {
		t.Fatalf("reference run performed only %d persistent writes — instrumentation lost coverage", rep.Writes)
	}
	if rep.Explored != rep.Writes {
		t.Fatalf("explored %d of %d write points — exhaustive sweep must cover every one", rep.Explored, rep.Writes)
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
	// A single injected failure costs at most one extra reboot.
	if rep.WorstReboots > rep.Ref.Reboots+1 {
		t.Errorf("worst-case reboots %d, reference %d", rep.WorstReboots, rep.Ref.Reboots)
	}
}

// State-hash pruning must only skip points, never change the verdict: the
// pruned sweep explores strictly fewer points and still finds no failures.
// TestExplorerRejectsInvalidConfigBeforeBuild checks a Window without Bytes
// mode is rejected before the reference deployment is built.
func TestExplorerRejectsInvalidConfigBeforeBuild(t *testing.T) {
	e := NewHealthExplorer(1, 0)
	built := 0
	build := e.Build
	e.Build = func() (*core.Framework, error) {
		built++
		return build()
	}
	e.Window = func(*core.Framework) (int64, int64, bool) { return 0, 0, true }
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "requires Bytes mode") {
		t.Fatalf("Run with Window and no Bytes: err %v, want the Bytes-mode rejection", err)
	}
	if built != 0 {
		t.Fatalf("invalid config called Build %d times before rejecting", built)
	}
}

func TestHealthExplorationWithPruning(t *testing.T) {
	ex := NewHealthExplorer(1, 0)
	ex.Prune = true
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pruned == 0 {
		t.Error("pruning enabled but no duplicate-state point found — hash collection broken?")
	}
	if rep.Explored+rep.Pruned != rep.Writes {
		t.Errorf("explored %d + pruned %d != %d writes", rep.Explored, rep.Pruned, rep.Writes)
	}
	if rep.Failed != 0 {
		t.Errorf("%d failed points under pruning", rep.Failed)
	}
}

// Budget mode samples a reproducible subset: same seed, same schedule.
func TestExplorationBudgetSamplingDeterministic(t *testing.T) {
	run := func() *ExploreReport {
		rep, err := NewHealthExplorer(7, 40).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Explored != 40 || b.Explored != 40 {
		t.Fatalf("budget 40 explored %d / %d points", a.Explored, b.Explored)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different reports:\n%s\nvs\n%s", a, b)
	}
}

// campaignRuns sizes one every-case campaign: tier1 runs per case, a
// quarter of that under the race detector, and deep under
// ARTEMIS_DEEP_CHAOS=1 (the weekly job).
func campaignRuns(tier1, deep int) int {
	switch {
	case os.Getenv("ARTEMIS_DEEP_CHAOS") == "1":
		return deep
	case raceEnabled:
		return tier1 / 4
	}
	return tier1
}

// radioFailures reports every failing run of a radio campaign.
func radioFailures(t *testing.T, rep *RadioReport) {
	t.Helper()
	for _, r := range rep.Results {
		if r.Failure != "" {
			t.Errorf("link seed %d: %s", r.LinkSeed, r.Failure)
		}
	}
}

// The radio campaign on every example case: seeded lossy links must
// provoke retries and duplicate deliveries, and the retry/backoff/degrade
// machinery must leave every store output equal to the perfect-link run's
// — no event lost, none double-counted.
func TestHealthRadioCampaign(t *testing.T) {
	runs := campaignRuns(50, 200)
	for _, c := range examplespecs.All() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := NewRadioCampaign(c, 3, runs).Run()
			if err != nil {
				t.Fatal(err)
			}
			radioFailures(t, rep)
			if rep.Drops == 0 || rep.Retries == 0 {
				t.Errorf("lossy campaign provoked no loss: drops %d retries %d", rep.Drops, rep.Retries)
			}
			if rep.Duplicates == 0 {
				t.Error("duplication probability 0.2 produced no duplicate deliveries")
			}
		})
	}
}

// Under a near-dead channel the retry budget exhausts and the host must
// degrade to local evaluation instead of losing monitor coverage, on every
// example case, with every output still equal to the perfect-link run's.
func TestRadioCampaignDegradesToLocalUnderHeavyLoss(t *testing.T) {
	runs := campaignRuns(50, 200)
	for _, c := range examplespecs.All() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			camp := NewRadioCampaign(c, 9, runs)
			camp.DropProb = 0.85
			camp.DupProb = 0
			rep, err := camp.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Degraded == 0 {
				t.Error("85% drop rate never exhausted the retry budget — degrade-to-local path untested")
			}
			radioFailures(t, rep)
		})
	}
}

// Sensor faults: harmful faults must trip the dpData range monitor
// (completePath), the benign case must not.
func TestHealthSensorCampaign(t *testing.T) {
	rep, err := NewHealthSensorCampaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		for _, r := range rep.Results {
			if r.Failure != "" {
				t.Errorf("%s: %s", r.Fault, r.Failure)
			}
		}
	}
}

// Bit flips anywhere in FRAM may change data but must never crash the
// runtime uncontrolled, on any example case and with the integrity layer
// off or on — even without the layer, corrupted control loads surface as
// typed errors. Degraded runs are allowed here: the layer cannot yet see
// a flipped runtime/initDone word or a flipped group selector.
func TestHealthFlipCampaign(t *testing.T) {
	runs := campaignRuns(300, 2000)
	for _, c := range examplespecs.All() {
		for _, integ := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/integrity=%v", c.Name, integ), func(t *testing.T) {
				t.Parallel()
				rep, err := NewFlipCampaign(c, 5, runs, integ, 0).Run()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Crashed != 0 {
					t.Errorf("%d uncontrolled crashes: %v", rep.Crashed, rep.CrashLogs)
				}
				if got := rep.Masked + rep.Recovered + rep.Degraded + rep.Detected + rep.Unrecoverable + rep.Crashed; got != rep.Runs {
					t.Errorf("outcome classes sum to %d, want %d", got, rep.Runs)
				}
				t.Logf("%s", rep)
			})
		}
	}
}

// The full campaign report is deterministic for a fixed seed — the
// property the CLI's --chaos mode relies on.
func TestCampaignReportDeterministic(t *testing.T) {
	run := func() string {
		rep, err := NewHealthCampaign(42, 60, 3, 3, false, 0).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different campaign reports:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "verdict:    PASS") {
		t.Errorf("campaign verdict not PASS:\n%s", a)
	}
	for _, section := range []string{"crash:", "radio:", "sensor:", "bitflip:"} {
		if !strings.Contains(a, section) {
			t.Errorf("report missing %q section:\n%s", section, a)
		}
	}
}

// Every explored crash point must actually reach its scheduled write: a
// hook that never fires would silently turn the sweep into a no-op. The
// explorer arms the hook at k <= total writes, so each run either crashes
// (recoveries or reboots observed) or the point is the very last write.
func TestExplorationActuallyCrashes(t *testing.T) {
	ex := NewHealthExplorer(1, 0)
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With continuous power the reference never reboots; if injection
	// works, the worst case over the sweep must be exactly one reboot.
	if rep.Ref.Reboots != 0 {
		t.Fatalf("reference run rebooted %d times on continuous power", rep.Ref.Reboots)
	}
	if rep.WorstReboots != 1 {
		t.Fatalf("worst-case reboots %d — injected power failures did not take effect", rep.WorstReboots)
	}
}

// A completePath decision runs the rest of the path unmonitored. Each of
// those tasks commits its outputs and its finished status in one flip, and
// the move to the next task commits after it: a power failure between the
// two must resume at the move, not run the finished task again. A stuck
// 40 °C thermistor trips calcAvg's dpData range monitor, so the completing
// path carries send, and every output must match the continuous run at
// every write, the alert's sentCount included.
func TestCompletePathCrashRunsEachTaskOnce(t *testing.T) {
	app := health.New()
	app.SenseTemp = StuckAt{Value: 40}.Apply
	ex := NewExplorer(examplespecs.Health(), func(cfg *core.Config) { cfg.Graph = app.Graph })
	ex.Workers = 2
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ref.PathCompletes == 0 {
		t.Fatalf("the stuck sensor never tripped completePath:\n%s", rep)
	}
	if rep.Explored != rep.Writes {
		t.Fatalf("explored %d of %d write points", rep.Explored, rep.Writes)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d of %d crash points failed an oracle:\n%s", rep.Failed, rep.Explored, rep)
	}
}
