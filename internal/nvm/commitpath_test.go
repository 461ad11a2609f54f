package nvm_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// commitPathCases is every example deployment plus the health benchmark
// under the Mayfly and Ocelot runtimes, whose commit groups differ from
// ARTEMIS's.
func commitPathCases() []examplespecs.Case {
	cases := examplespecs.All()
	for _, sys := range []core.System{core.Mayfly, core.Ocelot} {
		sys := sys
		cases = append(cases, examplespecs.Case{Name: "health-" + sys.String(), Config: func() (core.Config, error) {
			app := health.New()
			cfg := core.Config{
				System:    sys,
				Graph:     app.Graph,
				StoreKeys: health.Keys(),
				Supply: core.SupplyConfig{
					Kind: core.SupplyFixedDelay, BudgetUJ: 900, Delay: 30 * simclock.Second,
				},
				MaxReboots: 400,
			}
			if sys == core.Mayfly {
				cfg.Constraints = mayfly.HealthConstraints()
			} else {
				cfg.FreshnessBounds = freshness.HealthBounds()
			}
			return cfg, nil
		}})
	}
	return cases
}

// commitOutcome is everything a commit may charge or store.
type commitOutcome struct {
	stats  nvm.Stats
	wear   map[string]int64
	hash   uint64
	image  []byte
	report *core.Report
}

// runCommitPath runs one deployment of c to the end. perOp installs a no-op
// write observer, which sends every commit down the per-op path; without
// it, commits that can fire no hook take the one-pass path. crashAfter > 0
// injects a power failure after that many persistent write operations.
func runCommitPath(t *testing.T, c examplespecs.Case, perOp bool, crashAfter int) commitOutcome {
	t.Helper()
	cfg, err := c.Config()
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	mem := f.MCU().Mem
	if perOp {
		mem.SetWriteObserver(func() {})
	}
	if crashAfter > 0 {
		clock := f.MCU().Clock
		mem.SetWriteCrashHook(crashAfter, func() {
			panic(device.PowerFailure{At: clock.Now()})
		})
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatalf("run failed (perOp=%v crash=%d): %v", perOp, crashAfter, err)
	}
	return outcomeOf(mem, rep)
}

// outcomeOf collects the outcome of a finished run on mem.
func outcomeOf(mem *nvm.Memory, rep *core.Report) commitOutcome {
	out := commitOutcome{
		stats:  mem.Stats(),
		wear:   map[string]int64{},
		hash:   mem.Hash(),
		image:  nvm.Image(mem),
		report: rep,
	}
	for _, o := range mem.Owners() {
		out.wear[o] = mem.WearOf(o)
	}
	return out
}

// diffOutcomes reports every way the outcomes of two runs of one
// deployment differ; an and bn name the two runs.
func diffOutcomes(t *testing.T, name, an, bn string, a, b commitOutcome) {
	t.Helper()
	if a.stats != b.stats {
		t.Errorf("%s: NVM stats diverged:\n  %s %+v\n  %s %+v", name, an, a.stats, bn, b.stats)
	}
	if !reflect.DeepEqual(a.wear, b.wear) {
		t.Errorf("%s: wear diverged:\n  %s %v\n  %s %v", name, an, a.wear, bn, b.wear)
	}
	if a.hash != b.hash {
		t.Errorf("%s: NVM hash diverged: %s %#x, %s %#x", name, an, a.hash, bn, b.hash)
	}
	if !bytes.Equal(a.image, b.image) {
		t.Errorf("%s: NVM images diverged", name)
	}
	if !reflect.DeepEqual(a.report, b.report) {
		t.Errorf("%s: reports diverged:\n  %s %+v\n  %s %+v", name, an, *a.report, bn, *b.report)
	}
}

// TestCommitPathEquivalence holds the one-pass commit to the per-op path it
// replaces whenever no hook can fire: every example deployment and the
// Mayfly and Ocelot health runs must charge identical NVM stats, per-owner
// wear, hash, image bytes and report either way — uninterrupted, and with a
// power failure after sampled write operations (every one under
// ARTEMIS_DEEP_CHAOS=1), where commits before the crash run one-pass and
// the commit the crash lands in runs per-op.
func TestCommitPathEquivalence(t *testing.T) {
	deep := os.Getenv("ARTEMIS_DEEP_CHAOS") == "1"
	const samplePoints = 10
	for _, c := range commitPathCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			ref := runCommitPath(t, c, false, 0)
			diffOutcomes(t, c.Name, "one-pass", "per-op", ref, runCommitPath(t, c, true, 0))

			// The reference run's write count sizes the crash-point space
			// (construction writes happen before the hook is armed).
			cfg, err := c.Config()
			if err != nil {
				t.Fatal(err)
			}
			f, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			writes := int(ref.stats.Writes - f.MCU().Mem.Stats().Writes)
			f.Release()
			if writes <= 0 {
				t.Fatal("reference run performed no persistent writes")
			}
			var points []int
			if deep || writes <= samplePoints {
				for k := 1; k <= writes; k++ {
					points = append(points, k)
				}
			} else {
				r := rand.New(rand.NewSource(13))
				for _, k := range r.Perm(writes)[:samplePoints] {
					points = append(points, k+1)
				}
			}
			for _, k := range points {
				diffOutcomes(t, fmt.Sprintf("%s@write%d", c.Name, k), "one-pass", "per-op",
					runCommitPath(t, c, false, k), runCommitPath(t, c, true, k))
			}
		})
	}
}
