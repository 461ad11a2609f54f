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

func diffCommitOutcomes(t *testing.T, name string, onePass, perOp commitOutcome) {
	t.Helper()
	if onePass.stats != perOp.stats {
		t.Errorf("%s: NVM stats diverged:\n  one-pass %+v\n  per-op   %+v", name, onePass.stats, perOp.stats)
	}
	if !reflect.DeepEqual(onePass.wear, perOp.wear) {
		t.Errorf("%s: wear diverged:\n  one-pass %v\n  per-op   %v", name, onePass.wear, perOp.wear)
	}
	if onePass.hash != perOp.hash {
		t.Errorf("%s: NVM hash diverged: one-pass %#x, per-op %#x", name, onePass.hash, perOp.hash)
	}
	if !bytes.Equal(onePass.image, perOp.image) {
		t.Errorf("%s: NVM images diverged", name)
	}
	if !reflect.DeepEqual(onePass.report, perOp.report) {
		t.Errorf("%s: reports diverged:\n  one-pass %+v\n  per-op   %+v", name, *onePass.report, *perOp.report)
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
			diffCommitOutcomes(t, c.Name, ref, runCommitPath(t, c, true, 0))

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
				diffCommitOutcomes(t, fmt.Sprintf("%s@write%d", c.Name, k),
					runCommitPath(t, c, false, k), runCommitPath(t, c, true, k))
			}
		})
	}
}
