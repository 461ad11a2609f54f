package core

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/transform"
)

func v2Compiled(t *testing.T) *transform.Result {
	t.Helper()
	res, err := health.CompiledSharedV2()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func swapConfig(t *testing.T, supply SupplyConfig) Config {
	cfg := artemisConfig(supply)
	cfg.SwapCompiled = v2Compiled(t)
	return cfg
}

func TestSpecSwapEndToEnd(t *testing.T) {
	cfg := swapConfig(t, SupplyConfig{Kind: SupplyContinuous})
	cfg.SwapAt = 2 // after the first couple of events, mid-application
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("run did not complete: %+v", rep.RunResult)
	}
	if rep.OTA == nil {
		t.Fatal("no OTA stats in report")
	}
	if rep.OTA.Swaps != 1 || rep.OTA.Rollbacks != 0 {
		t.Fatalf("swaps=%d rollbacks=%d (%s)", rep.OTA.Swaps, rep.OTA.Rollbacks, rep.OTA.LastRollback)
	}
	if rep.OTA.MissedEvents != 0 {
		t.Fatalf("swap missed %d events", rep.OTA.MissedEvents)
	}
	if rep.OTA.ChunksSent == 0 || rep.OTA.TransferEnergyUJ <= 0 {
		t.Fatalf("transfer accounting: %+v", rep.OTA)
	}
	mgr := f.OTA()
	if mgr.ActiveVersion() != 2 {
		t.Fatalf("active version = %d, want 2", mgr.ActiveVersion())
	}
	if err := mgr.VerifyActive(); err != nil {
		t.Fatal(err)
	}
	// The framework's monitor accessor must follow the swap.
	if f.Monitors() != mgr.ActiveSet() {
		t.Fatal("Monitors() does not track the active set")
	}
	if got := len(f.Monitors().Monitors()); got != 8 {
		t.Fatalf("active set has %d monitors, want 8", got)
	}
	// The swap must not break the application outcome.
	if f.Store().Get("sentCount") != 3 {
		t.Fatalf("sentCount = %g", f.Store().Get("sentCount"))
	}
}

func TestSpecSwapUnderIntermittentPower(t *testing.T) {
	// The transfer and activation span many power failures; the swap must
	// still land exactly once and the application must still complete.
	cfg := swapConfig(t, SupplyConfig{
		Kind: SupplyFixedDelay, BudgetUJ: 800, Delay: simclock.Minute,
	})
	cfg.SwapAt = 3
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.NonTerminated {
		t.Fatalf("intermittent swap run: %+v", rep.RunResult)
	}
	if rep.Reboots == 0 {
		t.Fatal("expected power failures under an 800 µJ budget")
	}
	if rep.OTA.Swaps != 1 {
		t.Fatalf("swaps = %d (%s)", rep.OTA.Swaps, rep.OTA.LastRollback)
	}
	if f.OTA().ActiveVersion() != 2 {
		t.Fatalf("active version = %d", f.OTA().ActiveVersion())
	}
	if err := f.OTA().VerifyActive(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecSwapWithIntegrityAndTelemetry(t *testing.T) {
	cfg := swapConfig(t, SupplyConfig{Kind: SupplyContinuous})
	cfg.Integrity = true
	cfg.Telemetry = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.OTA.Swaps != 1 {
		t.Fatalf("rep = %+v ota = %+v", rep.RunResult, rep.OTA)
	}
	// The swap event must be in the telemetry stream.
	found := false
	for _, ev := range f.Telemetry().Events() {
		if ev.Kind.String() == "specSwap" {
			found = true
		}
	}
	if !found {
		t.Fatal("no specSwap telemetry event")
	}
}

func TestSwapOptionsRequireSwapCompiled(t *testing.T) {
	cfg := artemisConfig(SupplyConfig{Kind: SupplyContinuous})
	cfg.SwapAt = 5
	if _, err := New(cfg); err == nil {
		t.Fatal("SwapAt without SwapCompiled accepted")
	}
}

// swapDeadLink drops every exchange: the transfer exhausts its retries on
// the first chunk and the update must roll back cleanly.
type swapDeadLink struct{}

func (swapDeadLink) Exchange(seq uint64, attempt int) (bool, int) { return false, 0 }

func TestSwapDeadLinkRollsBack(t *testing.T) {
	cfg := swapConfig(t, SupplyConfig{Kind: SupplyContinuous})
	cfg.SwapLink = swapDeadLink{}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("rollback run did not complete: %+v", rep.RunResult)
	}
	if rep.OTA.Swaps != 0 || rep.OTA.Rollbacks != 1 || rep.OTA.LastRollback != "transfer" {
		t.Fatalf("ota = %+v", rep.OTA)
	}
	mgr := f.OTA()
	if mgr.ActiveVersion() != 1 {
		t.Fatalf("active version = %d after rollback", mgr.ActiveVersion())
	}
	if mgr.TransferInFlight() {
		t.Fatal("staged transfer survived the rollback")
	}
	if err := mgr.VerifyActive(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapCorruptionRollsBack(t *testing.T) {
	cfg := swapConfig(t, SupplyConfig{Kind: SupplyContinuous})
	cfg.SwapCorrupt = func(chunk int, data []byte) []byte {
		if chunk != 1 {
			return data
		}
		out := append([]byte(nil), data...)
		out[0] ^= 0x40
		return out
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("corrupted-transfer run did not complete: %+v", rep.RunResult)
	}
	if rep.OTA.Swaps != 0 || rep.OTA.Rollbacks != 1 || rep.OTA.LastRollback != "checksum" {
		t.Fatalf("ota = %+v", rep.OTA)
	}
	if f.OTA().ActiveVersion() != 1 {
		t.Fatalf("corrupted bundle activated: version %d", f.OTA().ActiveVersion())
	}
	if err := f.OTA().VerifyActive(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapOverRemoteMonitors(t *testing.T) {
	// With remote monitors the bundle ships over the same radio link and
	// retry machinery the event notifications use; SwapLink is rejected.
	cfg := swapConfig(t, SupplyConfig{Kind: SupplyContinuous})
	cfg.RemoteMonitors = true
	cfg.SwapLink = swapDeadLink{}
	if _, err := New(cfg); err == nil {
		t.Fatal("SwapLink with RemoteMonitors accepted")
	}
	cfg.SwapLink = nil
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.OTA.Swaps != 1 {
		t.Fatalf("rep = %+v ota = %+v", rep.RunResult, rep.OTA)
	}
	if err := f.OTA().VerifyActive(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapMigrationCarriesReplayCursor(t *testing.T) {
	// After the swap, re-delivered event sequence numbers must not re-step
	// the new monitors: every monitor in the new set starts with the old
	// set's replay cursor (either via state migration or SeedReplay).
	cfg := swapConfig(t, SupplyConfig{Kind: SupplyContinuous})
	cfg.SwapAt = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.OTA.Swaps != 1 {
		t.Fatalf("rep = %+v ota = %+v", rep.RunResult, rep.OTA)
	}
	// On continuous power the transfer fits in one boundary visit, so the
	// two marks may coincide; activation can never precede the request.
	if rep.OTA.ActivateSeq < rep.OTA.RequestSeq {
		t.Fatalf("ActivateSeq %d before RequestSeq %d",
			rep.OTA.ActivateSeq, rep.OTA.RequestSeq)
	}
	var _ monitor.Interface = f.OTA() // the manager fronts the deployment
}
