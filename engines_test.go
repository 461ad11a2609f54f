// Differential proof that the closure-compiled monitor engine, which every
// deployment runs, and the IR interpreter, its reference, are
// indistinguishable at system level: every example spec runs through both,
// asserting byte-identical verdict streams, FSM trajectories, NVM images, and
// reports — uninterrupted, under injected power failures, and across an
// over-the-air spec swap (whose installed set runs compiled too). The
// expression-level counterpart lives in internal/codegen/compile_test.go;
// this file holds the whole deployment to the same contract.
package bench

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/monitor"
)

// deepChaos reports whether the exhaustive weekly sweep was requested
// (ARTEMIS_DEEP_CHAOS=1); tier-1 samples the crash-point space instead.
func deepChaos() bool { return os.Getenv("ARTEMIS_DEEP_CHAOS") == "1" }

// engineOutcome is everything the equivalence contract covers for one run.
type engineOutcome struct {
	hash      uint64
	memStats  string
	run       string
	artemis   string
	breakdown map[device.Component]device.Usage
	footprint map[string]int
	wear      map[string]int64
	outputs   map[string]float64
	states    map[string]string
	decisions []string
	engines   map[string]string
}

// runEngine builds cfg, switches its monitor set to the reference
// interpreter when interpret is set, runs it to the end, and captures the
// outcome. crashAfter > 0 injects a power failure after that many persistent
// write operations, explorePoint-style.
func runEngine(t *testing.T, cfg core.Config, interpret bool, crashAfter int) engineOutcome {
	t.Helper()
	var decisions []string
	cfg.OnDecision = func(ev monitor.Event, d monitor.Decision) {
		decisions = append(decisions, fmt.Sprintf("seq=%d %v -> action=%v path=%d by=%s",
			ev.Seq, ev.Event, d.Action, d.Path, d.Machine))
	}
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if interpret {
		f.Monitors().Interpret()
	}
	if crashAfter > 0 {
		mem := f.MCU().Mem
		clock := f.MCU().Clock
		mem.SetWriteCrashHook(crashAfter, func() {
			panic(device.PowerFailure{At: clock.Now()})
		})
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatalf("run failed (interpret=%v crash=%d): %v", interpret, crashAfter, err)
	}
	out := engineOutcome{
		hash:      f.MCU().Mem.Hash(),
		memStats:  fmt.Sprintf("%+v", f.MCU().Mem.Stats()),
		run:       fmt.Sprintf("%+v", rep.RunResult) + fmt.Sprintf(" nonTerm=%v", rep.NonTerminated),
		breakdown: rep.Breakdown,
		footprint: rep.Footprints,
		wear:      rep.Wear,
		outputs:   map[string]float64{},
		states:    map[string]string{},
		engines:   map[string]string{},
		decisions: decisions,
	}
	if rep.ArtemisStats != nil {
		out.artemis = fmt.Sprintf("%+v", *rep.ArtemisStats)
	}
	for _, k := range cfg.StoreKeys {
		out.outputs[k] = f.Store().Get(k)
	}
	if s := f.Monitors(); s != nil {
		for _, m := range s.Monitors() {
			out.states[m.Machine().Name] = m.State()
			out.engines[m.Machine().Name] = m.Engine()
		}
	}
	return out
}

// diffOutcomes asserts two outcomes identical in everything but the engine
// labels.
func diffOutcomes(t *testing.T, name string, interp, comp engineOutcome) {
	t.Helper()
	if interp.hash != comp.hash {
		t.Errorf("%s: NVM hash diverged: interpreter %#x, compiled %#x", name, interp.hash, comp.hash)
	}
	if interp.memStats != comp.memStats {
		t.Errorf("%s: NVM stats diverged:\n  interpreter %s\n  compiled    %s", name, interp.memStats, comp.memStats)
	}
	if interp.run != comp.run {
		t.Errorf("%s: run result diverged:\n  interpreter %s\n  compiled    %s", name, interp.run, comp.run)
	}
	if interp.artemis != comp.artemis {
		t.Errorf("%s: runtime stats diverged:\n  interpreter %s\n  compiled    %s", name, interp.artemis, comp.artemis)
	}
	if !reflect.DeepEqual(interp.outputs, comp.outputs) {
		t.Errorf("%s: store outputs diverged:\n  interpreter %v\n  compiled    %v", name, interp.outputs, comp.outputs)
	}
	if !reflect.DeepEqual(interp.states, comp.states) {
		t.Errorf("%s: final FSM states diverged:\n  interpreter %v\n  compiled    %v", name, interp.states, comp.states)
	}
	if !reflect.DeepEqual(interp.breakdown, comp.breakdown) {
		t.Errorf("%s: energy breakdown diverged", name)
	}
	if !reflect.DeepEqual(interp.footprint, comp.footprint) {
		t.Errorf("%s: footprints diverged:\n  interpreter %v\n  compiled    %v", name, interp.footprint, comp.footprint)
	}
	if !reflect.DeepEqual(interp.wear, comp.wear) {
		t.Errorf("%s: wear diverged:\n  interpreter %v\n  compiled    %v", name, interp.wear, comp.wear)
	}
	if a, b := strings.Join(interp.decisions, "\n"), strings.Join(comp.decisions, "\n"); a != b {
		i := 0
		for i < len(interp.decisions) && i < len(comp.decisions) && interp.decisions[i] == comp.decisions[i] {
			i++
		}
		at := func(ds []string) string {
			if i < len(ds) {
				return ds[i]
			}
			return "<stream ended>"
		}
		t.Errorf("%s: decision streams diverged at entry %d:\n  interpreter %s\n  compiled    %s",
			name, i, at(interp.decisions), at(comp.decisions))
	}
}

// TestEngineEquivalenceExamples runs every example deployment through both
// engines and asserts byte-identical behaviour, plus that engine selection
// actually took effect (two runs on one engine would make the equivalence
// vacuous).
func TestEngineEquivalenceExamples(t *testing.T) {
	for _, c := range examplespecs.All() {
		t.Run(c.Name, func(t *testing.T) {
			cfgI, err := c.Config()
			if err != nil {
				t.Fatal(err)
			}
			cfgC, err := c.Config()
			if err != nil {
				t.Fatal(err)
			}
			interp := runEngine(t, cfgI, true, 0)
			comp := runEngine(t, cfgC, false, 0)
			diffOutcomes(t, c.Name, interp, comp)
			for name, eng := range interp.engines {
				if eng != "interpreter" {
					t.Errorf("machine %s: interpreted run used engine %q", name, eng)
				}
			}
			for name, eng := range comp.engines {
				if eng != "compiled" {
					t.Errorf("machine %s: default run used engine %q, want compiled", name, eng)
				}
			}
		})
	}
}

// TestEngineEquivalenceUnderChaos repeats the differential proof with a
// power failure injected after the k-th persistent write, for sampled crash
// points (every point of every example under ARTEMIS_DEEP_CHAOS=1). A crash
// recovers through monitor replay — lastSeq short-circuits, commit-group
// rollback, FSM re-init — so this is where an engine divergence in staging
// order or scratch reuse would surface.
func TestEngineEquivalenceUnderChaos(t *testing.T) {
	cases := examplespecs.All()
	const samplePoints = 10
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			// Reference run to size the crash-point space.
			cfg, err := c.Config()
			if err != nil {
				t.Fatal(err)
			}
			f, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := f.MCU().Mem.Stats().Writes
			if _, err := f.Run(); err != nil {
				t.Fatalf("reference run: %v", err)
			}
			writes := int(f.MCU().Mem.Stats().Writes - base)
			f.Release()
			if writes == 0 {
				t.Fatal("reference run performed no persistent writes")
			}

			var points []int
			if deepChaos() || writes <= samplePoints {
				for k := 1; k <= writes; k++ {
					points = append(points, k)
				}
			} else {
				r := rand.New(rand.NewSource(5))
				seen := map[int]bool{}
				for len(points) < samplePoints {
					k := 1 + r.Intn(writes)
					if !seen[k] {
						seen[k] = true
						points = append(points, k)
					}
				}
			}
			for _, k := range points {
				cfgI, err := c.Config()
				if err != nil {
					t.Fatal(err)
				}
				cfgC, err := c.Config()
				if err != nil {
					t.Fatal(err)
				}
				interp := runEngine(t, cfgI, true, k)
				comp := runEngine(t, cfgC, false, k)
				diffOutcomes(t, fmt.Sprintf("%s@write%d", c.Name, k), interp, comp)
			}
		})
	}
}

// TestOTASwapRunsCompiled proves the OTA contract: a monitor set installed
// by an over-the-air spec swap runs on the compiled engine like the factory
// set, and the whole swapped run is byte-identical to the interpreted
// reference, whose factory set runs on the interpreter. The swap target is
// also deployed directly through both engines, so its machines are held to
// the interpreter at system level too.
func TestOTASwapRunsCompiled(t *testing.T) {
	v2, err := health.CompiledSharedV2()
	if err != nil {
		t.Fatal(err)
	}
	build := func() core.Config {
		cfg, err := examplespecs.HealthConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.SwapCompiled = v2
		cfg.SwapAt = 10
		return cfg
	}
	interp := runEngine(t, build(), true, 0)
	comp := runEngine(t, build(), false, 0)
	diffOutcomes(t, "health+swap", interp, comp)

	// The run ends on the swapped set, which must run compiled.
	for name, eng := range comp.engines {
		if eng != "compiled" {
			t.Errorf("machine %s: post-swap engine %q, want compiled", name, eng)
		}
	}

	direct := func() core.Config {
		cfg, err := examplespecs.HealthConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.SpecSource, cfg.Compiled = "", v2
		return cfg
	}
	diffOutcomes(t, "health-v2", runEngine(t, direct(), true, 0), runEngine(t, direct(), false, 0))

	// And the swap must actually have happened — otherwise the engine
	// assertion above is vacuous.
	f, err := core.New(build())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if f.OTA() == nil || f.OTA().Stats().Swaps == 0 {
		t.Fatal("OTA swap did not occur; the post-swap engine check is vacuous")
	}
}
