package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// rearmConfig is one deployer whose re-armed deployments the re-arm test
// holds to fresh core.New ones.
type rearmConfig struct {
	name     string
	deployer *examplespecs.Deployer
	counters []string
}

func rearmConfigs() []rearmConfig {
	var cs []rearmConfig
	for _, c := range examplespecs.All() {
		cs = append(cs,
			// As crash sweeps deploy the case, and as the fleet does.
			rearmConfig{name: "chaos/" + c.Name, deployer: examplespecs.NewDeployer(c).With(continuous(nil)), counters: c.Counters},
			rearmConfig{name: "fleet/" + c.Name, deployer: examplespecs.NewDeployer(c), counters: c.Counters})
	}
	for _, sys := range []core.System{core.Mayfly, core.Ocelot} {
		cs = append(cs,
			rearmConfig{name: fmt.Sprintf("%v/continuous", sys), counters: examplespecs.Health().Counters,
				deployer: baselineDeployer(sys, core.SupplyConfig{Kind: core.SupplyContinuous})},
			rearmConfig{name: fmt.Sprintf("%v/800uJ-1m", sys), counters: examplespecs.Health().Counters,
				deployer: baselineDeployer(sys, core.SupplyConfig{Kind: core.SupplyFixedDelay, BudgetUJ: 800, Delay: simclock.Minute})})
	}
	return append(cs, rearmConfig{name: "health/integrity", counters: examplespecs.Health().Counters,
		deployer: examplespecs.NewDeployer(examplespecs.Health()).With(continuous(integrityConfig(100 * simclock.Millisecond)))})
}

// rearmSeed orders the crash states the re-arm test resumes.
const rearmSeed = 31

// TestRearmedMatchesFresh holds a Deployer's re-armed deployments to fresh
// core.New deployments of its configuration. It resumes every crash state
// of a recording (a sample under the race detector) in a seeded random
// order on one re-armed deployment, released and re-armed after every
// point, and on fresh deployments; then it runs both from the start after
// each kind of prior use of the re-armed one: a full run, a resumed crash state, a run with injected
// events and a non-terminated run. Each pair must end with the same image
// hash, FRAM counters, clock, supply, outputs and full report (wear and
// footprints included), with the run's energy and every breakdown entry
// equal bit for bit.
func TestRearmedMatchesFresh(t *testing.T) {
	for _, c := range rearmConfigs() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg, err := c.deployer.Config()
			if err != nil {
				t.Fatal(err)
			}
			e := explorerOf(c.deployer, c.counters)
			fresh := func() (*core.Framework, error) { return core.New(cfg) }
			points, rec, _, _ := recordReference(t, e)
			defer rec.Release()
			rand.New(rand.NewSource(rearmSeed)).Shuffle(len(points), func(i, j int) {
				points[i], points[j] = points[j], points[i]
			})
			if raceEnabled {
				points = points[:min(len(points), resumeSample)]
			}

			// Every point deploys the one deployment the reference run
			// released, so each resumes where another point's run left it.
			var rearmed *device.MCU
			deploy := func() (*core.Framework, error) {
				f, err := e.Build()
				if err == nil {
					if rearmed == nil {
						rearmed = f.MCU()
					} else if f.MCU() != rearmed {
						t.Fatal("Deploy(nil) built a deployment instead of re-arming the released one")
					}
				}
				return f, err
			}
			for _, k := range points {
				resume := func(f *core.Framework) (*core.Report, error) { return f.Resume(rec, k) }
				if diff := rearmDiff(deploy, fresh, resume, e.Keys); diff != "" {
					t.Fatalf("crash state %d of %d: re-armed and fresh deployments differ: %s", k, rec.Writes(), diff)
				}
			}

			run := func(f *core.Framework) (*core.Report, error) { return f.Run() }
			uses := priorUses(rec)
			for _, use := range uses {
				f, err := deploy()
				if err != nil {
					t.Fatal(err)
				}
				if err := use.run(t, f); err != nil {
					t.Fatalf("%s: %v", use.name, err)
				}
				f.Release()
				if diff := rearmDiff(deploy, fresh, run, e.Keys); diff != "" {
					t.Fatalf("run after %s: re-armed and fresh deployments differ: %s", use.name, diff)
				}
			}
			t.Logf("%d crash states and %d runs after prior use identical", len(points), len(uses))
		})
	}
}

// priorUse is one way a deployment is used before it is released.
type priorUse struct {
	name string
	run  func(t *testing.T, f *core.Framework) error
}

// priorUses are the uses the re-arm test precedes a fresh run with.
func priorUses(rec *core.Recording) []priorUse {
	return []priorUse{
		{"a full run", func(_ *testing.T, f *core.Framework) error {
			_, err := f.Run()
			return err
		}},
		{"a resumed crash state", func(_ *testing.T, f *core.Framework) error {
			_, err := f.Resume(rec, (rec.Writes()+1)/2)
			return err
		}},
		{"injected events", func(_ *testing.T, f *core.Framework) error {
			if _, err := f.Run(); err != nil || f.Monitors() == nil {
				return err
			}
			task := f.Monitors().Monitors()[0].Binding().Task
			for i, kind := range []ir.EventKind{ir.EvStart, ir.EvEnd, ir.EvStart} {
				if _, _, err := f.InjectEvent(kind, task, float64(40+i)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"a non-terminated run", func(t *testing.T, f *core.Framework) error {
			// Every boot fails right after its first write.
			mem, clock := f.MCU().Mem, f.MCU().Clock
			var fail func()
			fail = func() {
				mem.SetWriteCrashHook(1, fail)
				panic(device.PowerFailure{At: clock.Now()})
			}
			mem.SetWriteCrashHook(1, fail)
			rep, err := f.Run()
			if err == nil && !rep.NonTerminated {
				t.Fatal("a run whose every boot fails terminated")
			}
			return err
		}},
	}
}

// runView is everything the re-arm test compares about one run.
type runView struct {
	Report    *core.Report
	Outcome   Outcome
	Hash      uint64
	Stats     nvm.Stats
	Clock     simclock.State
	Supply    energy.State
	Integrity any
	// Energy holds the bits of the run's energy, then of each breakdown
	// entry's in component order.
	Energy []uint64
}

// rearmDiff deploys with rearm and with fresh, runs each deployment with
// run and describes the first difference, or returns "" when there is
// none.
func rearmDiff(rearm, fresh func() (*core.Framework, error), run func(*core.Framework) (*core.Report, error), keys []string) string {
	var views [2]runView
	for i, build := range []func() (*core.Framework, error){rearm, fresh} {
		f, err := build()
		if err != nil {
			return err.Error()
		}
		rep, err := run(f)
		if err != nil {
			return err.Error()
		}
		views[i] = viewRun(f, rep, keys)
		f.Release()
	}
	a, b := reflect.ValueOf(views[0]), reflect.ValueOf(views[1])
	for i := 0; i < a.NumField(); i++ {
		if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			return fmt.Sprintf("%s\n re-armed %+v\n fresh    %+v", a.Type().Field(i).Name,
				a.Field(i).Interface(), b.Field(i).Interface())
		}
	}
	return ""
}

// viewRun captures what the re-arm test compares about f's run.
func viewRun(f *core.Framework, rep *core.Report, keys []string) runView {
	if rep.Breakdown == nil {
		f.Tally(rep)
	}
	mcu := f.MCU()
	v := runView{Report: rep, Outcome: capture(f, rep, keys), Hash: mcu.Mem.Hash(), Stats: mcu.Mem.Stats(),
		Energy: []uint64{math.Float64bits(float64(rep.Energy))}}
	v.Clock, _ = mcu.Clock.State()
	v.Supply, _ = energy.Snapshot(mcu.Supply)
	if in := f.Integrity(); in != nil {
		v.Integrity = in.HostState()
	}
	comps := make([]device.Component, 0, len(rep.Breakdown))
	for c := range rep.Breakdown {
		comps = append(comps, c)
	}
	slices.Sort(comps)
	for _, c := range comps {
		v.Energy = append(v.Energy, math.Float64bits(float64(rep.Breakdown[c].Energy)))
	}
	return v
}
