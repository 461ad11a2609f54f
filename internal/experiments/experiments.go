// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated testbed: the wearable health-monitoring
// benchmark on an MSP430FR5994-class device under RF-harvesting-style
// intermittent power.
//
// Each FigureN/TableN function returns typed rows plus a Render helper that
// prints the same series the paper plots. cmd/experiments drives them from
// the command line; bench_test.go wraps each in a testing.B benchmark.
package experiments

import (
	"context"
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/parallel"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// Options tunes the experiment harness. The zero value reproduces the
// paper's setup.
type Options struct {
	// BudgetUJ is the usable energy per boot; the default 800 µJ makes
	// power failures land inside the accel and send tasks (§5.1), like the
	// paper's capacitor does.
	BudgetUJ float64
	// ChargingDelays is the Figure-12/16 sweep; defaults to 1–10 minutes.
	ChargingDelays []simclock.Duration
	// NonTermReboots is the reboot budget after which a run is declared
	// non-terminating; defaults to 100.
	NonTermReboots int
	// BodyTemp configures the simulated patient; defaults to healthy 36.6.
	BodyTemp float64
	// Workers is the number of concurrent simulations per sweep. 0 or 1
	// runs serially on the calling goroutine (the bisection-friendly zero
	// value); pass parallel.DefaultWorkers() for one per CPU. Every sweep
	// returns results in sweep order regardless of Workers, so rendered
	// figures and tables are byte-identical at any worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.BudgetUJ == 0 {
		o.BudgetUJ = 800
	}
	if len(o.ChargingDelays) == 0 {
		for m := 1; m <= 10; m++ {
			o.ChargingDelays = append(o.ChargingDelays, simclock.Duration(m)*simclock.Minute)
		}
	}
	if o.NonTermReboots == 0 {
		o.NonTermReboots = 100
	}
	if o.BodyTemp == 0 {
		o.BodyTemp = 36.6
	}
	return o
}

// Outcome summarises one benchmark run for the figure tables.
type Outcome struct {
	Completed bool
	// NonTerminated means the run was cut off by the reboot budget — the
	// wall-clock and energy are unbounded ("∞" in the rendered tables).
	NonTerminated bool
	Elapsed       simclock.Duration
	Active        simclock.Duration
	EnergyJ       float64
	Reboots       int
	PathRestarts  int
	PathSkips     int
}

// sweep runs fn over items through the shared fan-out executor with the
// options' worker count and returns the results in item order — the
// property that keeps parallel figure output byte-identical to serial.
// Each fn call must build its own simulation (core.New per call); the
// only state shared between concurrent calls is the immutable compiled
// monitor program.
func sweep[I, O any](o Options, items []I, fn func(i int, item I) (O, error)) ([]O, error) {
	workers := o.Workers
	if workers <= 0 {
		workers = 1
	}
	return parallel.Map(context.Background(), items, workers,
		func(_ context.Context, i int, item I) (O, error) { return fn(i, item) })
}

// runHealth executes the benchmark once on the chosen system and supply.
func runHealth(system core.System, supply core.SupplyConfig, o Options, hook func(*core.Config)) (*core.Report, Outcome, error) {
	f, err := deployHealth(system, supply, o, hook)
	if err != nil {
		return nil, Outcome{}, err
	}
	rep, err := f.Run()
	if err != nil {
		return nil, Outcome{}, err
	}
	out := Outcome{
		Completed:     rep.Completed,
		NonTerminated: rep.NonTerminated,
		Elapsed:       rep.Elapsed,
		Active:        rep.Active,
		EnergyJ:       float64(rep.Energy),
		Reboots:       rep.Reboots,
	}
	if rep.ArtemisStats != nil {
		out.PathRestarts = rep.ArtemisStats.PathRestarts
		out.PathSkips = rep.ArtemisStats.PathSkips
	}
	if rep.MayflyStats != nil {
		out.PathRestarts = rep.MayflyStats.PathRestarts
	}
	return rep, out, nil
}

// deployHealth builds the benchmark on the chosen system and supply, with
// the system's property set; hook, when non-nil, adjusts the configuration
// last.
func deployHealth(system core.System, supply core.SupplyConfig, o Options, hook func(*core.Config)) (*core.Framework, error) {
	app := health.NewWithTemp(o.BodyTemp)
	cfg := core.Config{
		System:     system,
		Graph:      app.Graph,
		StoreKeys:  health.Keys(),
		Supply:     supply,
		MaxReboots: o.NonTermReboots,
	}
	switch system {
	case core.Mayfly:
		cfg.Constraints = mayfly.HealthConstraints()
	case core.Ocelot:
		// The enforced counterpart of the spec's MITD: accel data consumed
		// by send at most 5 minutes old.
		cfg.FreshnessBounds = freshness.HealthBounds()
	default:
		// Compile the Figure-5 spec once per process instead of once per
		// run; the result is immutable and shared by concurrent sweeps.
		res, err := health.CompiledShared()
		if err != nil {
			return nil, err
		}
		cfg.Compiled = res
	}
	if hook != nil {
		hook(&cfg)
	}
	return core.New(cfg)
}

func fixedDelay(budgetUJ float64, delay simclock.Duration) core.SupplyConfig {
	return core.SupplyConfig{Kind: core.SupplyFixedDelay, BudgetUJ: budgetUJ, Delay: delay}
}

func continuous() core.SupplyConfig {
	return core.SupplyConfig{Kind: core.SupplyContinuous}
}

// formatOutcomeTime renders a run's total time, with ∞ for non-termination.
func formatOutcomeTime(o Outcome) string {
	if o.NonTerminated {
		return "∞ (non-termination)"
	}
	return fmt.Sprintf("%.1f min", o.Elapsed.Minutes())
}

// formatOutcomeEnergy renders a run's energy, with ∞ for non-termination.
func formatOutcomeEnergy(o Outcome) string {
	if o.NonTerminated {
		return fmt.Sprintf("unbounded (>%.2f mJ)", o.EnergyJ*1e3)
	}
	return fmt.Sprintf("%.3f mJ", o.EnergyJ*1e3)
}
