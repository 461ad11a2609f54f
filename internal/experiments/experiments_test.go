package experiments

import (
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/simclock"
)

// fastOptions keeps sweep tests quick while preserving the paper's shape.
func fastOptions() Options {
	return Options{NonTermReboots: 60}
}

func TestFigure12Shape(t *testing.T) {
	rows, err := Figure12(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 (1–10 minutes)", len(rows))
	}
	for _, r := range rows {
		// ARTEMIS completes at every charging delay (the headline claim).
		if !r.Artemis.Completed || r.Artemis.NonTerminated {
			t.Errorf("%v: ARTEMIS did not complete: %+v", r.Charging, r.Artemis)
		}
		// Mayfly completes while the charging delay leaves the 5-minute
		// MITD satisfiable, and non-terminates beyond it.
		if r.Charging < 5*simclock.Minute {
			if !r.Mayfly.Completed {
				t.Errorf("%v: Mayfly should complete below the MITD", r.Charging)
			}
		} else {
			if !r.Mayfly.NonTerminated {
				t.Errorf("%v: Mayfly should non-terminate at/beyond the MITD", r.Charging)
			}
		}
	}
	// ARTEMIS execution time grows with the charging delay.
	for i := 1; i < len(rows); i++ {
		if rows[i].Artemis.Elapsed <= rows[i-1].Artemis.Elapsed {
			t.Errorf("ARTEMIS time not increasing: %v at %v <= %v at %v",
				rows[i].Artemis.Elapsed, rows[i].Charging,
				rows[i-1].Artemis.Elapsed, rows[i-1].Charging)
		}
	}
	out := RenderFigure12(rows)
	if !strings.Contains(out, "non-termination") {
		t.Errorf("render misses the non-termination marker:\n%s", out)
	}
}

func TestFigure13Timeline(t *testing.T) {
	r, err := Figure13(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (maxAttempt)", r.Attempts)
	}
	if !r.Skipped {
		t.Error("path was never skipped")
	}
	if !r.Completed {
		t.Error("application did not complete")
	}
	events := r.Timeline.Events()
	if len(events) < 4 {
		t.Fatalf("timeline too short: %v", events)
	}
	out := RenderFigure13(r)
	for _, want := range []string{"attempt #1", "attempt #2", "attempt #3", "skipPath", "completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestFigure14Shape(t *testing.T) {
	rows, err := Figure14(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	art, may := rows[0], rows[1]
	// Application logic dominates both systems.
	if art.AppLogic < 5*(art.Runtime+art.Monitor) {
		t.Errorf("ARTEMIS app logic %v does not dominate overheads %v",
			art.AppLogic, art.Runtime+art.Monitor)
	}
	if may.AppLogic < 5*(may.Runtime+may.Monitor) {
		t.Errorf("Mayfly app logic %v does not dominate overheads %v",
			may.AppLogic, may.Runtime+may.Monitor)
	}
	// Totals nearly identical (within 5%).
	diff := art.Total - may.Total
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(may.Total) {
		t.Errorf("totals diverge: ARTEMIS %v vs Mayfly %v", art.Total, may.Total)
	}
	// Only ARTEMIS has a separate monitor component.
	if art.Monitor == 0 {
		t.Error("ARTEMIS monitor time zero")
	}
	if may.Monitor != 0 {
		t.Errorf("Mayfly monitor time %v, want 0 (coupled design)", may.Monitor)
	}
	if out := RenderFigure14(rows); !strings.Contains(out, "ARTEMIS") || !strings.Contains(out, "Mayfly") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestFigure15Shape(t *testing.T) {
	rows, err := Figure15(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	art, may := rows[0], rows[1]
	// ARTEMIS pays slightly more overhead than Mayfly for its decoupling.
	if art.Runtime+art.Monitor <= may.Runtime+may.Monitor {
		t.Errorf("ARTEMIS overhead %v not above Mayfly %v",
			art.Runtime+art.Monitor, may.Runtime+may.Monitor)
	}
	// But both remain in the low-millisecond range per run ("negligible").
	if art.Runtime+art.Monitor > 200*simclock.Millisecond {
		t.Errorf("ARTEMIS overhead %v implausibly large", art.Runtime+art.Monitor)
	}
	if out := RenderFigure15(rows); !strings.Contains(out, "ms") {
		t.Errorf("render not in milliseconds:\n%s", out)
	}
}

func TestFigure16Shape(t *testing.T) {
	rows, err := Figure16(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	byLabel := map[string]Fig16Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	cont := byLabel["continuous"]
	if cont.Artemis.NonTerminated || cont.Mayfly.NonTerminated {
		t.Fatal("non-termination on continuous power")
	}
	// Parity at short delays: both systems complete, within 2x of each
	// other and of their continuous baseline trend.
	for _, label := range []string{"1 min", "2 min"} {
		r := byLabel[label]
		if r.Artemis.NonTerminated || r.Mayfly.NonTerminated {
			t.Errorf("%s: unexpected non-termination", label)
		}
		if r.Artemis.EnergyJ > 2.5*cont.Artemis.EnergyJ {
			t.Errorf("%s: ARTEMIS energy %g too far above continuous %g",
				label, r.Artemis.EnergyJ, cont.Artemis.EnergyJ)
		}
	}
	// Beyond the MITD: Mayfly unbounded, ARTEMIS bounded at roughly 3x
	// continuous (the three bounded attempts of path #2).
	for _, label := range []string{"5 min", "10 min"} {
		r := byLabel[label]
		if !r.Mayfly.NonTerminated {
			t.Errorf("%s: Mayfly should be unbounded", label)
		}
		if r.Artemis.NonTerminated {
			t.Errorf("%s: ARTEMIS must complete", label)
		}
		ratio := r.Artemis.EnergyJ / cont.Artemis.EnergyJ
		if ratio < 1.5 || ratio > 5 {
			t.Errorf("%s: ARTEMIS/continuous energy ratio %.2f outside the ~3x band", label, ratio)
		}
	}
	if out := RenderFigure16(rows); !strings.Contains(out, "unbounded") {
		t.Errorf("render misses the unbounded marker:\n%s", out)
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	byComp := map[string]Table2Row{}
	for _, r := range rows {
		byComp[r.Component] = r
		if r.FRAM <= 0 {
			t.Errorf("%s: FRAM %d, want positive", r.Component, r.FRAM)
		}
		if r.Text <= 0 {
			t.Errorf("%s: .text %d, want positive", r.Component, r.Text)
		}
	}
	may := byComp["Mayfly runtime"]
	art := byComp["ARTEMIS runtime"]
	mon := byComp["ARTEMIS monitor (generated)"]
	// The paper's relative claims: the decoupled ARTEMIS runtime needs less
	// FRAM than Mayfly's, and the generated monitors carry the bulk of the
	// application-specific persistent state.
	if art.FRAM >= may.FRAM {
		t.Errorf("ARTEMIS runtime FRAM %d >= Mayfly %d", art.FRAM, may.FRAM)
	}
	if mon.FRAM <= art.FRAM {
		t.Errorf("monitor FRAM %d <= runtime %d", mon.FRAM, art.FRAM)
	}
	// The Ocelot-style enforcer is the leanest runtime: its control words
	// plus one timestamp slot per bounded producer, no per-edge property
	// metadata and no monitor machines.
	oce := byComp["Ocelot freshness runtime"]
	if oce.FRAM >= art.FRAM {
		t.Errorf("Ocelot FRAM %d, want below ARTEMIS runtime %d", oce.FRAM, art.FRAM)
	}
	// The optional integrity layer must stay a small add-on: per guarded
	// region it persists one double-buffered CRC, well under what the
	// monitors themselves need.
	integ := byComp["ARTEMIS integrity guards (optional)"]
	if integ.FRAM <= 0 || integ.FRAM >= mon.FRAM {
		t.Errorf("integrity FRAM %d, want positive and below monitor %d", integ.FRAM, mon.FRAM)
	}
	if integ.RAM <= 0 {
		t.Errorf("integrity RAM %d, want positive", integ.RAM)
	}
	// RAM and FRAM are summed from the NVM allocation table; pin the
	// benchmark's figures so a layout change shows up here.
	for comp, want := range map[string][2]int{
		"Mayfly runtime":                      {32, 281},
		"Ocelot freshness runtime":            {40, 91},
		"ARTEMIS runtime":                     {120, 250},
		"ARTEMIS monitor (generated)":         {768, 1544},
		"ARTEMIS integrity guards (optional)": {80, 178},
	} {
		if r := byComp[comp]; r.RAM != want[0] || r.FRAM != want[1] {
			t.Errorf("%s: RAM %d FRAM %d, want %d and %d", comp, r.RAM, r.FRAM, want[0], want[1])
		}
	}
	if out := RenderTable2(rows); !strings.Contains(out, "FRAM") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestAlternativesShape(t *testing.T) {
	rows, err := Alternatives(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	local, remote := rows[0], rows[1]
	if !local.Completed || !remote.Completed {
		t.Fatal("a deployment did not complete")
	}
	// The paper's §7 prediction: shipping events over the radio costs the
	// host significantly more energy than evaluating monitors locally.
	if remote.MonitorUJ < 3*local.MonitorUJ {
		t.Errorf("remote monitor energy %.0f µJ not clearly above local %.0f µJ",
			remote.MonitorUJ, local.MonitorUJ)
	}
	if remote.MonitorTime <= local.MonitorTime {
		t.Errorf("remote monitor time %v not above local %v",
			remote.MonitorTime, local.MonitorTime)
	}
	if out := RenderAlternatives(rows); !strings.Contains(out, "wireless") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestWearShape(t *testing.T) {
	rows, err := Wear(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]WearRow{}
	for _, r := range rows {
		byKey[r.System.String()+"/"+r.Component] = r
		if r.Footprint <= 0 {
			t.Errorf("%v/%s: footprint %d", r.System, r.Component, r.Footprint)
		}
	}
	mon := byKey["ARTEMIS/monitor"]
	// Monitors re-commit per event: wear turns their footprint over many
	// times in a single run.
	if mon.WearBytes < 10*int64(mon.Footprint) {
		t.Errorf("monitor wear %d not >> footprint %d", mon.WearBytes, mon.Footprint)
	}
	// The app's store wear is modest by comparison (one commit per task).
	app := byKey["ARTEMIS/app"]
	if app.WearBytes >= mon.WearBytes {
		t.Errorf("app wear %d >= monitor wear %d", app.WearBytes, mon.WearBytes)
	}
	if out := RenderWear(rows); !strings.Contains(out, "turnover") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestFigure12PhysicalShape(t *testing.T) {
	rows, err := Figure12Physical(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Artemis.Completed || r.Artemis.NonTerminated {
			t.Errorf("%.2f µW: ARTEMIS did not complete: %+v", r.HarvestUW, r.Artemis)
		}
		// The physics introduce charge-curve effects, so the crossover may
		// shift by one bucket relative to the abstraction; the qualitative
		// split must still hold with a margin bucket on either side.
		switch {
		case r.Charging <= 3*simclock.Minute:
			if !r.Mayfly.Completed {
				t.Errorf("%v recharge: Mayfly should complete", r.Charging)
			}
		case r.Charging >= 6*simclock.Minute:
			if !r.Mayfly.NonTerminated {
				t.Errorf("%v recharge: Mayfly should non-terminate", r.Charging)
			}
		}
	}
	if out := RenderFigure12Physical(rows); !strings.Contains(out, "µW") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestExtensionShape(t *testing.T) {
	rows, err := Extension(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	sawBenefit := false
	for _, r := range rows {
		if !r.Plain.Completed || !r.Aware.Completed {
			t.Errorf("%g µJ: incomplete run (plain=%v aware=%v)",
				r.BudgetUJ, r.Plain.Completed, r.Aware.Completed)
		}
		// Energy awareness never costs reboots or energy...
		if r.Aware.Reboots > r.Plain.Reboots {
			t.Errorf("%g µJ: aware reboots %d > plain %d", r.BudgetUJ, r.Aware.Reboots, r.Plain.Reboots)
		}
		if r.Aware.EnergyJ > r.Plain.EnergyJ*1.01 {
			t.Errorf("%g µJ: aware energy %g > plain %g", r.BudgetUJ, r.Aware.EnergyJ, r.Plain.EnergyJ)
		}
		// ...and at some budget it strictly saves both.
		if r.Aware.Reboots < r.Plain.Reboots && r.Aware.EnergyJ < r.Plain.EnergyJ {
			sawBenefit = true
		}
	}
	if !sawBenefit {
		t.Error("no budget showed a strict benefit; scenario miscalibrated")
	}
	if out := RenderExtension(rows); !strings.Contains(out, "aware skips") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestRecoveryShape(t *testing.T) {
	res, err := Recovery(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Neither campaign may crash the runtime uncontrolled; the guarded one
	// must actually repair something and the baseline must not (it has no
	// repair machinery to credit).
	if res.Baseline.Crashed != 0 || res.Guarded.Crashed != 0 {
		t.Errorf("uncontrolled crashes: baseline %d, guarded %d", res.Baseline.Crashed, res.Guarded.Crashed)
	}
	if res.Baseline.Recovered != 0 {
		t.Errorf("baseline reports %d recoveries with the layer off", res.Baseline.Recovered)
	}
	if res.Guarded.Recovered == 0 {
		t.Errorf("guarded campaign repaired nothing:\n%s", res.Guarded.String())
	}
	// The scrub schedule must cost something — and not dominate the run.
	if res.ScrubChecks == 0 {
		t.Error("clean guarded run performed no CRC checks")
	}
	if res.ScrubEnergyPct <= 0 || res.ScrubEnergyPct > 10 {
		t.Errorf("scrub energy %.2f%%, want within (0, 10]", res.ScrubEnergyPct)
	}
	if res.GuardFRAM <= 0 {
		t.Errorf("guard FRAM %d, want positive", res.GuardFRAM)
	}
	// The livelock demo: seed non-terminates, watchdog terminates.
	if !res.Starved.NonTerminated {
		t.Errorf("starved baseline terminated: %+v", res.Starved)
	}
	if !res.Rescued.Completed || res.Rescued.NonTerminated {
		t.Errorf("watchdog run did not complete: %+v", res.Rescued)
	}
	if res.WatchdogTrips == 0 {
		t.Error("watchdog never tripped")
	}
	out := RenderRecovery(res)
	for _, want := range []string{"scrub:", "watchdog", "non-terminated", "completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("render misses %q:\n%s", want, out)
		}
	}
}

func TestReprogrammingShape(t *testing.T) {
	rows, err := Reprogramming(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (0/10/30%% loss)", len(rows))
	}
	if !rows[0].Swapped || rows[0].LossPct != 0 {
		t.Fatalf("lossless row did not swap cleanly: %+v", rows[0])
	}
	if rows[0].EventsToSwap == 0 {
		t.Error("lossless swap reports zero events-to-swap on an intermittent supply")
	}
	for _, r := range rows {
		// Exactly-old-or-exactly-new: every run terminates, either swapped
		// or rolled back with a reason, and never loses an event to the swap.
		if !r.Outcome.Completed {
			t.Errorf("%d%% loss: run did not complete: %+v", r.LossPct, r.Outcome)
		}
		if !r.Swapped && r.Rollback == "" {
			t.Errorf("%d%% loss: neither swapped nor rolled back", r.LossPct)
		}
		if r.Missed != 0 {
			t.Errorf("%d%% loss: %d events missed across the swap", r.LossPct, r.Missed)
		}
		if r.Chunks == 0 || r.RadioUJ <= 0 {
			t.Errorf("%d%% loss: transfer reports no radio activity: %+v", r.LossPct, r)
		}
	}
	// Loss must cost: the faulted transfers pay at least the lossless energy.
	if rows[1].RadioUJ < rows[0].RadioUJ {
		t.Errorf("10%% loss cheaper than lossless: %.1f < %.1f µJ", rows[1].RadioUJ, rows[0].RadioUJ)
	}
	if !strings.Contains(RenderReprogramming(rows), "Reprogramming") {
		t.Error("render missing title")
	}
}
