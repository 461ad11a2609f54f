package chaos

import (
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/health"
)

// telemetryExplorer is the health crash explorer with the telemetry flight
// recorder attached: the recorder's NVM ring commits through the same
// two-phase protocol as everything else, so a crash after any single
// persistent write must leave the committed ring decodable and its
// sequence numbers intact. The extra "flight" oracle checks exactly that
// on every surviving run.
func telemetryExplorer(seed int64, budget int) *Explorer {
	e := NewExplorer(examplespecs.Health(), func(cfg *core.Config) {
		cfg.Telemetry = true
		cfg.FlightDepth = 32
	})
	e.Seed, e.Budget = seed, budget
	e.PostOracles = []string{"flight"}
	e.PostCheck = func(f *core.Framework, ref, got Outcome) []OracleFailure {
		tel := f.Telemetry()
		if tel == nil {
			return []OracleFailure{{Oracle: "flight", Detail: "telemetry tracer missing from instrumented build"}}
		}
		if err := tel.VerifyFlight(); err != nil {
			return []OracleFailure{{Oracle: "flight", Detail: err.Error()}}
		}
		return nil
	}
	return e
}

// TestTelemetryExplorer proves the flight recorder is crash-safe under the
// same exhaustive sweep that validates the runtime: with telemetry and a
// depth-32 NVM ring enabled, a power failure after every sampled persistent
// write must leave all four base oracles clean AND the committed ring
// structurally intact (the extra "flight" oracle). The recorder piggybacks
// on the two-phase commit machinery, so any torn ring here would be a
// protocol violation, not a telemetry nit.
func TestTelemetryExplorer(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive-style sweep is slow in -short mode")
	}
	rep, err := telemetryExplorer(7, 120).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("telemetry sweep: %d failed points\n%s", rep.Failed, rep.String())
	}
	if got := rep.OraclePass["flight"]; got != rep.Explored {
		t.Fatalf("flight oracle passed %d of %d points", got, rep.Explored)
	}
	// The instrumented build must write through the telemetry owner — if
	// the ring never persisted anything the sweep proved nothing.
	if rep.Explored == 0 {
		t.Fatal("sweep explored no crash points")
	}
}

// TestTelemetryExplorerMatchesBaseline: attaching the recorder must not
// change what the application computes — the base oracles judge against an
// instrumented reference, so the instrumented run must end with every
// store output equal to an uninstrumented health run's.
func TestTelemetryExplorerMatchesBaseline(t *testing.T) {
	outcome := func(e *Explorer) (*core.Framework, Outcome) {
		t.Helper()
		f, err := e.Build()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Release)
		rep, err := f.Run()
		if err != nil || !rep.Completed {
			t.Fatalf("run did not complete: %v", err)
		}
		return f, capture(f, rep, e.Keys)
	}
	_, ref := outcome(NewHealthExplorer(7, 1))
	f, got := outcome(telemetryExplorer(7, 1))
	tel := f.Telemetry()
	if tel == nil {
		t.Fatal("instrumented build has no tracer")
	}
	if tel.FlightDepth() != 32 {
		t.Fatalf("FlightDepth = %d, want 32", tel.FlightDepth())
	}
	if tel.PersistedCount() == 0 || tel.EventCount() == 0 {
		t.Fatal("instrumented run recorded nothing")
	}
	if err := tel.VerifyFlight(); err != nil {
		t.Fatalf("VerifyFlight after clean run: %v", err)
	}
	if len(got.Outputs) != len(health.Keys()) {
		t.Fatalf("captured %d outputs, want all %d health store keys", len(got.Outputs), len(health.Keys()))
	}
	if d := diverged(health.Keys(), ref, got); d != "" {
		t.Fatalf("instrumented run diverges from the uninstrumented one: %s", d)
	}
}

// TestFlipCampaignFlightDumps: with a flight recorder attached, every
// unrecoverable bit-flip verdict must carry a non-empty black-box dump,
// and the report must render it.
func TestFlipCampaignFlightDumps(t *testing.T) {
	rep, err := NewFlipCampaign(examplespecs.Health(), 5, 40, true, 32).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashed != 0 {
		t.Fatalf("instrumented flip campaign crashed %d times\n%s", rep.Crashed, rep.String())
	}
	if len(rep.FlightDumps) != rep.Unrecoverable {
		t.Fatalf("%d flight dumps for %d unrecoverable outcomes", len(rep.FlightDumps), rep.Unrecoverable)
	}
	for i, d := range rep.FlightDumps {
		if !strings.HasPrefix(d, "flight recorder: ") {
			t.Fatalf("dump %d malformed:\n%s", i, d)
		}
	}
	if rep.Unrecoverable > 0 && !strings.Contains(rep.String(), "unrecoverable #1 flight recorder:") {
		t.Fatalf("report does not render the dumps:\n%s", rep.String())
	}
	// Without a recorder the dump list stays empty even when outcomes are
	// unrecoverable, preserving the seeded baseline report byte-for-byte.
	bare, err := NewFlipCampaign(examplespecs.Health(), 5, 12, true, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.FlightDumps) != 0 {
		t.Fatalf("uninstrumented campaign produced %d dumps", len(bare.FlightDumps))
	}
}
