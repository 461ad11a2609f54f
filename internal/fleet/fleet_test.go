package fleet

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// TestFleetDigestDeterminism is the engine's core contract: the cumulative
// fleet digest is byte-identical at any shard count (and, via parallel.Map,
// any worker count), including under the race detector. Shard counts cover
// the degenerate serial case, a count that splits the case mix unevenly,
// and one shard per CPU.
func TestFleetDigestDeterminism(t *testing.T) {
	const devices, steps = 8, 2
	shardCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	var want uint64
	for i, shards := range shardCounts {
		e, err := New(Config{Devices: devices, Shards: shards, Workers: 0})
		if err != nil {
			t.Fatal(err)
		}
		var last StepResult
		for s := 0; s < steps; s++ {
			last, err = e.Step(context.Background())
			if err != nil {
				t.Fatal(err)
			}
		}
		if last.DeviceSteps != devices {
			t.Fatalf("shards=%d: step covered %d devices, want %d", shards, last.DeviceSteps, devices)
		}
		if e.Digest() != last.Digest {
			t.Fatalf("shards=%d: Digest()=%#x but StepResult.Digest=%#x", shards, e.Digest(), last.Digest)
		}
		if i == 0 {
			want = e.Digest()
			if want == 0 {
				t.Fatal("fleet digest is zero — nothing was folded")
			}
			continue
		}
		if e.Digest() != want {
			t.Fatalf("shards=%d: digest %#x, want %#x (shards=1)", shards, e.Digest(), want)
		}
	}
}

// TestFleetShardStats checks the counters the Prometheus exporter renders:
// every device step is attributed to exactly one shard, outcomes are
// partitioned, and once the recycle pool is warm, device runs are served
// recycled FRAM images.
func TestFleetShardStats(t *testing.T) {
	const devices, steps = 6, 3
	e, err := New(Config{Devices: devices, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if _, err := e.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var total, outcomes, recycled uint64
	for _, sh := range e.ShardStats() {
		total += sh.Steps
		outcomes += sh.Completed + sh.NonTerminated
		recycled += sh.Recycled
		if sh.Steps != uint64(sh.Devices*steps) {
			t.Errorf("shard %d: %d steps for %d devices over %d fleet steps", sh.Shard, sh.Steps, sh.Devices, steps)
		}
	}
	if total != devices*steps {
		t.Errorf("total device steps %d, want %d", total, devices*steps)
	}
	if outcomes != total {
		t.Errorf("outcomes %d do not partition %d device steps", outcomes, total)
	}
	// Every run releases its image before the shard's next run asks for
	// one, so all but a shard's first run can be served from the pool. A GC
	// may empty the pool at any time, so only the bounds are exact.
	if recycled == 0 || recycled > total {
		t.Errorf("recycled %d of %d device runs, want > 0 and <= total", recycled, total)
	}
}

// TestFleetMetricsOutput pins the exporter wiring: per-shard series appear
// with one sample per shard and deterministic ordering, and a write error
// reaches the caller.
func TestFleetMetricsOutput(t *testing.T) {
	e, err := New(Config{Devices: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`artemis_fleet_shard_devices{shard="0"} 2`,
		`artemis_fleet_device_steps_total{shard="1"} 2`,
		`artemis_fleet_pool_recycled_total{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	if err := e.WriteMetrics(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("metrics output is not deterministic across calls")
	}
	// artemis-sim -fleet -metrics relies on the write error coming back.
	if err := e.WriteMetrics(fullWriter{}); !errors.Is(err, errFull) {
		t.Errorf("WriteMetrics to a failing writer returned %v, want %v", err, errFull)
	}
}

// TestFleetStepCancellation cancels the context from the PostRun hook of
// the first device, mid-shard: Step must return a clean context error and
// leave the engine's cumulative digest and step counter untouched — no
// partial fold from the devices that did complete before the cancellation.
func TestFleetStepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e, err := New(Config{
		Devices: 4, Shards: 1, Workers: 1,
		PostRun: func(index int, _ string, _ *core.Framework, _ *core.Report) error {
			if index == 0 {
				cancel() // the shard's next device sees ctx.Err()
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step under mid-shard cancel returned %v, want context.Canceled", err)
	}
	if e.Digest() != 0 {
		t.Errorf("digest %#x after cancelled step, want 0 (no partial fold)", e.Digest())
	}
	if e.Steps() != 0 {
		t.Errorf("steps %d after cancelled step, want 0", e.Steps())
	}
	// The engine is still usable: a fresh context completes the step.
	if _, err := e.Step(context.Background()); err != nil {
		t.Fatalf("Step after recovery: %v", err)
	}
	if e.Steps() != 1 || e.Digest() == 0 {
		t.Errorf("recovered step not folded: steps=%d digest=%#x", e.Steps(), e.Digest())
	}
}

// TestFleetMembersMatchRoundRobin pins the dynamic-membership path to the
// round-robin path: an explicit Members list naming the same mix must
// reproduce the same digest, and Snapshot must report the placement.
func TestFleetMembersMatchRoundRobin(t *testing.T) {
	const devices = 6
	rr, err := New(Config{Devices: devices, Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rrStep, err := rr.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cases := examplespecs.All()
	members := make([]Member, devices)
	for i := range members {
		members[i] = Member{Name: cases[i%len(cases)].Name, Case: cases[i%len(cases)]}
	}
	em, err := New(Config{Members: members, Shards: 3, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	emStep, err := em.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if emStep.Digest != rrStep.Digest {
		t.Errorf("Members digest %#x != round-robin digest %#x", emStep.Digest, rrStep.Digest)
	}

	snap := em.Snapshot()
	if snap.Steps != 1 || snap.Digest != emStep.Digest {
		t.Errorf("snapshot counters: %+v", snap)
	}
	if len(snap.Devices) != devices {
		t.Fatalf("snapshot has %d devices, want %d", len(snap.Devices), devices)
	}
	for i, d := range snap.Devices {
		if d.Index != i {
			t.Errorf("snapshot device %d has index %d (want fold order)", i, d.Index)
		}
		if d.Name != members[i].Name {
			t.Errorf("device %d named %q, want %q", i, d.Name, members[i].Name)
		}
		if d.LastDigest == 0 {
			t.Errorf("device %d has zero last digest after a step", i)
		}
	}
}

// TestFleetPostRunDigestCoverage proves ingestion is not decorative: a
// PostRun hook injecting one external monitor event into a device changes
// that device's outcome digest, and injecting the same event at any
// shard/worker combination changes it identically.
func TestFleetPostRunDigestCoverage(t *testing.T) {
	health := examplespecs.All()[0]
	build := func(shards, workers int, inject bool) uint64 {
		t.Helper()
		cfg := Config{
			Members: []Member{{Name: "a", Case: health}, {Name: "b", Case: health}},
			Shards:  shards, Workers: workers,
		}
		if inject {
			cfg.PostRun = func(index int, _ string, f *core.Framework, _ *core.Report) error {
				if index != 0 {
					return nil
				}
				_, _, err := f.InjectEvent(ir.EvStart, "send", 0)
				return err
			}
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	plain := build(1, 1, false)
	injected := build(1, 1, true)
	if plain == injected {
		t.Error("injected event did not change the fleet digest")
	}
	if d := build(2, 0, true); d != injected {
		t.Errorf("injected digest %#x at shards=2 differs from serial %#x", d, injected)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("Devices=0 accepted")
	}
	e, err := New(Config{Devices: 2, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if e.ShardCount() != 2 {
		t.Errorf("shards not clamped to device count: %d", e.ShardCount())
	}
	if _, err := New(Config{Members: []Member{}}); err == nil {
		t.Error("empty Members accepted")
	}
	if _, err := New(Config{Devices: 3, Members: []Member{{Name: "x", Case: examplespecs.All()[0]}}}); err == nil {
		t.Error("conflicting Devices and Members accepted")
	}
}

// TestFleetDevicesShareCompiledProgram pins construction-time compilation:
// every device of every ARTEMIS case — camera (built against the image) and
// customir (hand-written IR) included — deploys through its case's one
// deployer, built by New, and runs that deployer's one program on every
// step.
func TestFleetDevicesShareCompiledProgram(t *testing.T) {
	cases := examplespecs.All()
	devices, steps := 2*len(cases), 2
	seen := make([][]*transform.Result, devices)
	e, err := New(Config{
		Devices: devices, Shards: 3,
		PostRun: func(index int, _ string, f *core.Framework, _ *core.Report) error {
			seen[index] = append(seen[index], f.Compiled())
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if _, err := e.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	byCase := map[string]*examplespecs.Deployer{}
	for _, sh := range e.shards {
		for _, d := range sh.devices {
			c := cases[d.index%len(cases)].Name
			cfg, err := d.deploy.Config()
			if err != nil || cfg.Compiled == nil {
				t.Fatalf("device %s: no program compiled at construction (%v)", d.name, err)
			}
			if prev, ok := byCase[c]; ok && prev != d.deploy {
				t.Errorf("case %s: devices hold different deployers", c)
			}
			byCase[c] = d.deploy
			if len(seen[d.index]) != steps {
				t.Fatalf("device %s: %d runs observed, want %d", d.name, len(seen[d.index]), steps)
			}
			for s, got := range seen[d.index] {
				if got != cfg.Compiled {
					t.Errorf("device %s step %d: ran a program other than the engine's", d.name, s)
				}
			}
		}
	}
	if len(byCase) != len(cases) {
		t.Errorf("%d cases compiled, want %d", len(byCase), len(cases))
	}
}

// fleetStepAllocBudget caps the allocations of one Engine.Step over a
// six-device fleet, one device per example case. The measured count is
// ~82: each device-step re-arms the deployment its case's deployer got
// back from the previous step. Building every device with core.New per
// step again, instead of re-arming, costs ~140 more (~222 in all), which
// the budget catches; building each case's configuration or compiling any
// case per step again costs more still.
const fleetStepAllocBudget = 120

func TestFleetStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	e, err := New(Config{Devices: len(examplespecs.All()), Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := e.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the deployers' pools before measuring
	avg := testing.AllocsPerRun(20, step)
	t.Logf("fleet step over %d devices: %.0f allocs (budget %d)", e.Devices(), avg, fleetStepAllocBudget)
	if avg > fleetStepAllocBudget {
		t.Errorf("fleet step allocates %.0f times, budget is %d — per-step construction regressed", avg, fleetStepAllocBudget)
	}
}

// fullWriter fails every write, like a device with no space left.
type fullWriter struct{}

var errFull = errors.New("no space left on device")

func (fullWriter) Write([]byte) (int, error) { return 0, errFull }
