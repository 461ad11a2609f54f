// Golden pin of the three task runtimes' simulated behaviour. ARTEMIS,
// Mayfly and Ocelot run the health benchmark under every evaluation supply,
// ARTEMIS also runs its policy variants (completePath, integrity, the
// watchdog) and every example spec, and Ocelot runs with an inferred
// freshness default. Each scenario runs uninterrupted and with one power
// failure injected after every goldenStride-th persistent write, and
// everything the runs report folds into one 64-bit digest per scenario: the
// FRAM image hash, NVM stats, the allocation table, the run result, the
// energy breakdown (exact float bits), footprints, wear, the runtime's
// counters and the error. A change that moves any FRAM byte, charge or
// counter of any runtime changes a digest; a refactor must leave the table
// below untouched.
package bench

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// goldenStride spaces the injected power failures: a scenario whose
// reference run performs W persistent writes is also run crashed after
// write goldenStride, 2·goldenStride, … ≤ W. It samples about one point in
// forty of the write space, which keeps the test well inside its -race
// budget while still landing failures inside every phase of every run.
const goldenStride = 41

// goldenScenario is one pinned deployment.
type goldenScenario struct {
	name string
	cfg  func() (core.Config, error)
}

// goldenHealth deploys the health benchmark on sys with its evaluation
// property set (the Figure-5 spec, Mayfly's constraints or Ocelot's
// bounds); mut, when non-nil, adjusts the configuration last.
func goldenHealth(sys core.System, bodyTemp float64, supply core.SupplyConfig, rounds int, mut func(*core.Config)) func() (core.Config, error) {
	return func() (core.Config, error) {
		app := health.NewWithTemp(bodyTemp)
		cfg := core.Config{
			System:     sys,
			Graph:      app.Graph,
			StoreKeys:  health.Keys(),
			Supply:     supply,
			Rounds:     rounds,
			MaxReboots: 100,
		}
		switch sys {
		case core.Artemis:
			res, err := health.CompiledShared()
			if err != nil {
				return core.Config{}, err
			}
			cfg.Compiled = res
		case core.Mayfly:
			cfg.Constraints = mayfly.HealthConstraints()
		case core.Ocelot:
			cfg.FreshnessBounds = freshness.HealthBounds()
		}
		if mut != nil {
			mut(&cfg)
		}
		return cfg, nil
	}
}

func goldenFixed(budgetUJ float64, delay simclock.Duration) core.SupplyConfig {
	return core.SupplyConfig{Kind: core.SupplyFixedDelay, BudgetUJ: budgetUJ, Delay: delay}
}

// goldenScenarios lists every pinned deployment, in a fixed order.
func goldenScenarios() []goldenScenario {
	supplies := []struct {
		name string
		s    core.SupplyConfig
	}{
		{"continuous", core.SupplyConfig{Kind: core.SupplyContinuous}},
		{"800uJ-1m", goldenFixed(800, simclock.Minute)},
		{"800uJ-4m", goldenFixed(800, 4*simclock.Minute)},
		{"800uJ-6m", goldenFixed(800, 6*simclock.Minute)},
		{"300uJ-30s", goldenFixed(300, 30*simclock.Second)},
		{"980uJ-6m", goldenFixed(980, 6*simclock.Minute)},
		{"burst", core.SupplyConfig{
			Kind:         core.SupplyBurst,
			CapacitanceF: 220e-6, VMax: 5.0, VOn: 3.2, VOff: 1.8,
			HarvestW: 5e-3, MeanOn: 40 * simclock.Millisecond, MeanOff: 40 * simclock.Millisecond, Seed: 7,
		}},
	}
	const normal, fever = 36.6, 39.2
	var out []goldenScenario
	for _, sys := range []core.System{core.Artemis, core.Mayfly, core.Ocelot} {
		for _, sup := range supplies {
			for _, rounds := range []int{1, 3} {
				out = append(out, goldenScenario{
					name: fmt.Sprintf("%v/%s/r%d", sys, sup.name, rounds),
					cfg:  goldenHealth(sys, normal, sup.s, rounds, nil),
				})
			}
		}
	}
	freshDefault := func(cfg *core.Config) { cfg.FreshnessDefault = 2 * simclock.Minute }
	out = append(out,
		goldenScenario{"Ocelot/fresh-default/continuous", goldenHealth(core.Ocelot, normal, supplies[0].s, 1, freshDefault)},
		goldenScenario{"Ocelot/fresh-default/980uJ-6m", goldenHealth(core.Ocelot, normal, supplies[5].s, 1, freshDefault)},
		goldenScenario{"ARTEMIS/fever/continuous", goldenHealth(core.Artemis, fever, supplies[0].s, 1, nil)},
		goldenScenario{"ARTEMIS/fever/800uJ-1m", goldenHealth(core.Artemis, fever, supplies[1].s, 1, nil)},
		goldenScenario{"ARTEMIS/integrity/800uJ-1m", goldenHealth(core.Artemis, normal, supplies[1].s, 1,
			func(cfg *core.Config) { cfg.Integrity = true })},
		goldenScenario{"ARTEMIS/watchdog2/300uJ-30s", goldenHealth(core.Artemis, normal, supplies[4].s, 1,
			func(cfg *core.Config) { cfg.WatchdogLimit = 2 })},
	)
	for _, c := range examplespecs.All() {
		out = append(out, goldenScenario{"example/" + c.Name, c.Config})
	}
	return out
}

// goldenRun runs one deployment, crashed after write crashAfter when
// positive, and writes its record into b. It returns the number of
// persistent writes the run performed.
func goldenRun(t *testing.T, sc goldenScenario, crashAfter int, b *strings.Builder) int {
	t.Helper()
	cfg, err := sc.cfg()
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	mem := f.MCU().Mem
	base := mem.Stats().Writes
	if crashAfter > 0 {
		clock := f.MCU().Clock
		mem.SetWriteCrashHook(crashAfter, func() {
			panic(device.PowerFailure{At: clock.Now()})
		})
	}
	rep, runErr := f.Run()
	fmt.Fprintf(b, "crash=%d err=%v\n", crashAfter, runErr)
	fmt.Fprintf(b, "hash=%#x mem=%+v\n", mem.Hash(), mem.Stats())
	fmt.Fprintf(b, "alloc=%v\n", mem.Allocations())
	if rep == nil {
		return int(mem.Stats().Writes - base)
	}
	fmt.Fprintf(b, "run completed=%v reboots=%d elapsed=%d active=%d energy=%#x nonterm=%v\n",
		rep.Completed, rep.Reboots, rep.Elapsed, rep.Active,
		math.Float64bits(float64(rep.Energy)), rep.NonTerminated)
	comps := make([]string, 0, len(rep.Breakdown))
	for c := range rep.Breakdown {
		comps = append(comps, string(c))
	}
	sort.Strings(comps)
	for _, c := range comps {
		u := rep.Breakdown[device.Component(c)]
		fmt.Fprintf(b, "usage %s time=%d energy=%#x\n", c, u.Time, math.Float64bits(float64(u.Energy)))
	}
	fmt.Fprintf(b, "footprint=%v wear=%v\n", rep.Footprints, rep.Wear)
	if s := rep.ArtemisStats; s != nil {
		fmt.Fprintf(b, "artemis=%+v\n", *s)
	}
	if s := rep.MayflyStats; s != nil {
		fmt.Fprintf(b, "mayfly=%+v\n", *s)
	}
	if s := rep.FreshnessStats; s != nil {
		fmt.Fprintf(b, "ocelot=%+v\n", *s)
	}
	if s := rep.Integrity; s != nil {
		fmt.Fprintf(b, "integrity=%+v\n", *s)
	}
	for _, k := range cfg.StoreKeys {
		fmt.Fprintf(b, "out %s=%#x\n", k, math.Float64bits(f.Store().Get(k)))
	}
	return int(mem.Stats().Writes - base)
}

// goldenDigest runs a scenario uninterrupted and at every stride point and
// folds all records into one digest. It also returns the number of crash
// points it ran.
func goldenDigest(t *testing.T, sc goldenScenario) (string, int) {
	t.Helper()
	var b strings.Builder
	writes := goldenRun(t, sc, 0, &b)
	points := 0
	for k := goldenStride; k <= writes; k += goldenStride {
		goldenRun(t, sc, k, &b)
		points++
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64()), points
}

// goldenDigests pins every scenario's digest. Regenerate only for a change
// that is meant to move simulated behaviour, and say why in the commit.
var goldenDigests = map[string]string{
	"ARTEMIS/continuous/r1":           "1cb090518b4c7c9a",
	"ARTEMIS/continuous/r3":           "aeef886d54facfcc",
	"ARTEMIS/800uJ-1m/r1":             "b3f11922cea0324e",
	"ARTEMIS/800uJ-1m/r3":             "8db2ab9bc6620c9c",
	"ARTEMIS/800uJ-4m/r1":             "a36c8326215a28f7",
	"ARTEMIS/800uJ-4m/r3":             "cf0e2d81db3e4479",
	"ARTEMIS/800uJ-6m/r1":             "90912482e38d5f33",
	"ARTEMIS/800uJ-6m/r3":             "c10724e9a996dbe2",
	"ARTEMIS/300uJ-30s/r1":            "8f01c46374895f8b",
	"ARTEMIS/300uJ-30s/r3":            "8fa6c7417db5d008",
	"ARTEMIS/980uJ-6m/r1":             "6ec6d93990d813c0",
	"ARTEMIS/980uJ-6m/r3":             "2758a973fdbf8888",
	"ARTEMIS/burst/r1":                "75bda9f88b437858",
	"ARTEMIS/burst/r3":                "32374a51590ffd0b",
	"Mayfly/continuous/r1":            "9cbb6ca30dde7656",
	"Mayfly/continuous/r3":            "309b85b3065a095e",
	"Mayfly/800uJ-1m/r1":              "cab43d297822ed79",
	"Mayfly/800uJ-1m/r3":              "e2f1f8ddb76195e6",
	"Mayfly/800uJ-4m/r1":              "bb4071951c430309",
	"Mayfly/800uJ-4m/r3":              "83bcafcc1cca56b2",
	"Mayfly/800uJ-6m/r1":              "6a29007970955aaf",
	"Mayfly/800uJ-6m/r3":              "6a29007970955aaf",
	"Mayfly/300uJ-30s/r1":             "0e9a40fa0bad6366",
	"Mayfly/300uJ-30s/r3":             "0e9a40fa0bad6366",
	"Mayfly/980uJ-6m/r1":              "6a29007970955aaf",
	"Mayfly/980uJ-6m/r3":              "6a29007970955aaf",
	"Mayfly/burst/r1":                 "72f33e421059c103",
	"Mayfly/burst/r3":                 "4daf1799e0a31c77",
	"Ocelot/continuous/r1":            "b29b2b2e0cb52052",
	"Ocelot/continuous/r3":            "a8e73025a24c36eb",
	"Ocelot/800uJ-1m/r1":              "53adea8c9f67568c",
	"Ocelot/800uJ-1m/r3":              "899c1278f24acb8e",
	"Ocelot/800uJ-4m/r1":              "d9c250a532fa431e",
	"Ocelot/800uJ-4m/r3":              "493affa8cfd51f45",
	"Ocelot/800uJ-6m/r1":              "5f9c1a88eb01733c",
	"Ocelot/800uJ-6m/r3":              "5f9c1a88eb01733c",
	"Ocelot/300uJ-30s/r1":             "d9196136f662ef22",
	"Ocelot/300uJ-30s/r3":             "d9196136f662ef22",
	"Ocelot/980uJ-6m/r1":              "704af8135e9d00cb",
	"Ocelot/980uJ-6m/r3":              "4ad20008dfa96b33",
	"Ocelot/burst/r1":                 "4e5ff86b714fb2ee",
	"Ocelot/burst/r3":                 "af12a563e8490b3b",
	"Ocelot/fresh-default/continuous": "a7351555a61b4af4",
	"Ocelot/fresh-default/980uJ-6m":   "009904308f0c9054",
	"ARTEMIS/fever/continuous":        "8934cef5bcb58ac7",
	"ARTEMIS/fever/800uJ-1m":          "fb418878192e104a",
	"ARTEMIS/integrity/800uJ-1m":      "b99daed72cdd2733",
	"ARTEMIS/watchdog2/300uJ-30s":     "8ba2a781d0c868f4",
	"example/health":                  "8605064105add341",
	"example/greenhouse":              "d638ce9cba7cd233",
	"example/camera":                  "1d33caa4e283162d",
	"example/quickstart":              "46abcea253dc9f0f",
	"example/customir":                "057c2a63a901aff5",
	"example/legacyspec":              "8158e1621635cf0d",
}

// TestRuntimeGolden holds the three runtimes to their pinned digests.
func TestRuntimeGolden(t *testing.T) {
	scenarios := goldenScenarios()
	got := make([]string, len(scenarios))
	points := make([]int, len(scenarios))
	t.Run("scenarios", func(t *testing.T) {
		for i, sc := range scenarios {
			i, sc := i, sc
			t.Run(sc.name, func(t *testing.T) {
				t.Parallel()
				got[i], points[i] = goldenDigest(t, sc)
			})
		}
	})
	if t.Failed() {
		return
	}
	total := 0
	var table strings.Builder
	mismatch := false
	for i, sc := range scenarios {
		total += points[i]
		fmt.Fprintf(&table, "\t%q: %q,\n", sc.name, got[i])
		if goldenDigests[sc.name] != got[i] {
			mismatch = true
			t.Errorf("%s: digest %s, pinned %q", sc.name, got[i], goldenDigests[sc.name])
		}
	}
	if len(goldenDigests) != len(scenarios) {
		mismatch = true
		t.Errorf("%d pinned digests for %d scenarios", len(goldenDigests), len(scenarios))
	}
	t.Logf("%d scenarios, %d crash points", len(scenarios), total)
	if mismatch {
		t.Logf("digest table for this tree:\n%s", table.String())
	}
}
