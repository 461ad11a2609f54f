package chaos

import (
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/camera"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/task"
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

// The radio campaign: seeded lossy links must provoke retries and
// duplicate deliveries, and the retry/backoff/degrade machinery must keep
// every invariant — no event lost, none double-counted.
func TestHealthRadioCampaign(t *testing.T) {
	rep, err := NewHealthRadioCampaign(3, 5).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		for _, r := range rep.Results {
			if r.Failure != "" {
				t.Errorf("link seed %d: %s", r.LinkSeed, r.Failure)
			}
		}
	}
	if rep.Drops == 0 || rep.Retries == 0 {
		t.Errorf("lossy campaign provoked no loss: drops %d retries %d", rep.Drops, rep.Retries)
	}
	if rep.Duplicates == 0 {
		t.Error("duplication probability 0.2 produced no duplicate deliveries")
	}
}

// Under a near-dead channel the retry budget exhausts and the host must
// degrade to local evaluation instead of losing monitor coverage.
func TestRadioCampaignDegradesToLocalUnderHeavyLoss(t *testing.T) {
	c := NewHealthRadioCampaign(9, 3)
	c.DropProb = 0.85
	c.DupProb = 0
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded == 0 {
		t.Error("85% drop rate never exhausted the retry budget — degrade-to-local path untested")
	}
	if rep.Failed != 0 {
		for _, r := range rep.Results {
			if r.Failure != "" {
				t.Errorf("link seed %d: %s", r.LinkSeed, r.Failure)
			}
		}
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
// runtime uncontrolled — even with the integrity layer off, corrupted
// control loads surface as typed errors (satellite hardening).
func TestHealthFlipCampaign(t *testing.T) {
	rep, err := NewHealthFlipCampaign(5, 8, false, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashed != 0 {
		t.Errorf("%d uncontrolled crashes: %v", rep.Crashed, rep.CrashLogs)
	}
	if got := rep.Masked + rep.Recovered + rep.Degraded + rep.Detected + rep.Unrecoverable + rep.Crashed; got != rep.Runs {
		t.Errorf("outcome classes sum to %d, want %d", got, rep.Runs)
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

// The camera application routes data through a persistent Channel, which
// the runtime joins to the same commit group as the store: its counters
// must also survive a power failure after every persistent write.
func TestCameraExhaustiveCrashExploration(t *testing.T) {
	ex := &Explorer{
		Build: func() (*core.Framework, error) {
			return core.New(core.Config{
				System:     core.Artemis,
				SpecSource: camera.SpecSource,
				StoreKeys:  camera.Keys(),
				BuildApp: func(mem *nvm.Memory) (*task.Graph, []task.Persistent, error) {
					app, err := camera.New(mem, 2)
					if err != nil {
						return nil, nil, err
					}
					return app.Graph, []task.Persistent{app.Chunks}, nil
				},
				Supply: core.SupplyConfig{Kind: core.SupplyContinuous},
			})
		},
		Keys:      []string{"frames", "chunksMade", "chunksSent", "classification"},
		ExactKeys: []string{"frames", "chunksMade", "chunksSent"},
	}
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored != rep.Writes {
		t.Fatalf("explored %d of %d points", rep.Explored, rep.Writes)
	}
	if rep.Failed != 0 {
		for _, p := range rep.FailedPoints {
			t.Errorf("crash point %d: %+v", p.Point, p.Failures)
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
