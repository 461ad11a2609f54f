package core

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
)

func artemisConfig(supply SupplyConfig) Config {
	return Config{
		System:     Artemis,
		Graph:      health.New().Graph,
		StoreKeys:  health.Keys(),
		SpecSource: health.SpecSource,
		Supply:     supply,
		MaxReboots: 300,
	}
}

func mayflyConfig(supply SupplyConfig) Config {
	return Config{
		System:      Mayfly,
		Graph:       health.New().Graph,
		StoreKeys:   health.Keys(),
		Constraints: mayfly.HealthConstraints(),
		Supply:      supply,
		MaxReboots:  120,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := artemisConfig(SupplyConfig{Kind: SupplyContinuous})
	cfg.StoreKeys = nil
	if _, err := New(cfg); err == nil {
		t.Error("missing store keys accepted")
	}
	cfg = artemisConfig(SupplyConfig{Kind: SupplyContinuous})
	cfg.SpecSource = "!!!"
	if _, err := New(cfg); err == nil {
		t.Error("bad spec accepted")
	}
	cfg = artemisConfig(SupplyConfig{Kind: SupplyKind(99)})
	if _, err := New(cfg); err == nil {
		t.Error("unknown supply accepted")
	}
	cfg = artemisConfig(SupplyConfig{Kind: SupplyContinuous})
	cfg.System = System(42)
	if _, err := New(cfg); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestArtemisContinuousRun(t *testing.T) {
	f, err := New(artemisConfig(SupplyConfig{Kind: SupplyContinuous}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.NonTerminated {
		t.Fatalf("rep = %+v", rep)
	}
	if rep.ArtemisStats == nil || rep.ArtemisStats.TaskRuns == 0 {
		t.Fatal("missing ARTEMIS stats")
	}
	if rep.Breakdown[device.CompApp].Time == 0 {
		t.Fatal("missing app breakdown")
	}
	if rep.Footprints["runtime"] == 0 || rep.Footprints["monitor"] == 0 {
		t.Fatalf("footprints = %v", rep.Footprints)
	}
	if f.CompiledIR() == nil || len(f.CompiledIR().Machines) != 8 {
		t.Fatal("compiled IR not exposed")
	}
	if f.Store().Get("sentCount") != 3 {
		t.Fatalf("sentCount = %g", f.Store().Get("sentCount"))
	}
}

func TestMayflyNonTerminationReported(t *testing.T) {
	f, err := New(mayflyConfig(SupplyConfig{
		Kind: SupplyFixedDelay, BudgetUJ: 800, Delay: 6 * simclock.Minute,
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NonTerminated {
		t.Fatal("Mayfly completed under a 6-minute charging delay")
	}
	if rep.MayflyStats == nil || rep.MayflyStats.PathRestarts == 0 {
		t.Fatal("missing Mayfly stats")
	}
	if f.CompiledIR() != nil {
		t.Fatal("Mayfly exposes compiled IR")
	}
}

func TestArtemisPreventsNonTermination(t *testing.T) {
	f, err := New(artemisConfig(SupplyConfig{
		Kind: SupplyFixedDelay, BudgetUJ: 800, Delay: 6 * simclock.Minute,
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.NonTerminated || !rep.Completed {
		t.Fatalf("ARTEMIS failed to complete: %+v", rep.RunResult)
	}
	if rep.ArtemisStats.PathSkips == 0 {
		t.Fatal("expected a path skip to escape the MITD loop")
	}
}

func TestHarvestedSupplyRun(t *testing.T) {
	cfg := artemisConfig(SupplyConfig{
		Kind:         SupplyHarvested,
		CapacitanceF: 220e-6, VMax: 5.0, VOn: 3.2, VOff: 1.8,
		HarvestW: 5e-6, // 5 µW: seconds-to-minutes charging times
	})
	cfg.MaxReboots = 2000
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed && !rep.NonTerminated {
		t.Fatalf("inconclusive run: %+v", rep.RunResult)
	}
	if rep.Reboots == 0 {
		t.Fatal("expected power failures under a 5 µW harvester")
	}
}

func TestOnRebootObserver(t *testing.T) {
	f, err := New(artemisConfig(SupplyConfig{
		Kind: SupplyFixedDelay, BudgetUJ: 800, Delay: simclock.Minute,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var offs []simclock.Duration
	f.OnReboot(func(n int, off simclock.Duration) { offs = append(offs, off) })
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if len(offs) == 0 {
		t.Fatal("observer saw no reboots")
	}
	for _, off := range offs {
		if off != simclock.Minute {
			t.Fatalf("off = %v, want 1m", off)
		}
	}
}

func TestBurstHarvesterRun(t *testing.T) {
	// A full application run under the physical capacitor charged by a
	// deterministic burst process — exercising the stochastic-supply path
	// end to end. The node must either finish or be reported stuck, and
	// under a reasonable mean power it finishes.
	cfg := artemisConfig(SupplyConfig{
		Kind:         SupplyHarvested,
		CapacitanceF: 470e-6, VMax: 5.0, VOn: 3.2, VOff: 1.8,
		HarvestW: 10e-6,
	})
	cfg.MaxReboots = 3000
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("burst run inconclusive: %+v", rep.RunResult)
	}
	if f.Store().Get("tempCount") != 10 {
		t.Fatalf("tempCount = %g", f.Store().Get("tempCount"))
	}
}

// TestArtemisOnlySettingsRejected pins that New refuses a setting the chosen
// runtime would silently ignore: the remote-monitor and OTA settings on
// Mayfly and Ocelot, and RadioLink without the remote deployment it
// configures.
func TestArtemisOnlySettingsRejected(t *testing.T) {
	settings := []struct {
		name string
		set  func(*Config)
	}{
		{"RemoteMonitors", func(c *Config) { c.RemoteMonitors = true }},
		{"RadioLink", func(c *Config) { c.RadioLink = swapDeadLink{} }},
		{"SwapCompiled", func(c *Config) { c.SwapCompiled = v2Compiled(t) }},
		{"SwapAt", func(c *Config) { c.SwapAt = 2 }},
		{"SwapLink", func(c *Config) { c.SwapLink = swapDeadLink{} }},
		{"SwapCorrupt", func(c *Config) { c.SwapCorrupt = func(_ int, b []byte) []byte { return b } }},
	}
	ocelot := Config{System: Ocelot, Graph: health.New().Graph, StoreKeys: health.Keys(),
		FreshnessBounds: freshness.HealthBounds()}
	for _, base := range []Config{mayflyConfig(SupplyConfig{}), ocelot} {
		for _, s := range settings {
			cfg := base
			s.set(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("%v accepted %s", cfg.System, s.name)
			}
		}
	}
	cfg := artemisConfig(SupplyConfig{})
	cfg.RadioLink = swapDeadLink{}
	if _, err := New(cfg); err == nil {
		t.Error("ARTEMIS accepted RadioLink without RemoteMonitors")
	}
}

func TestRemoteMonitorsEndToEnd(t *testing.T) {
	cfg := artemisConfig(SupplyConfig{Kind: SupplyContinuous})
	cfg.RemoteMonitors = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("remote run: %+v", rep.RunResult)
	}
	// The radio exchanges land in the monitor component.
	if rep.Breakdown[device.CompMonitor].Time < 100*simclock.Millisecond {
		t.Fatalf("monitor time %v too small for radio shipping",
			rep.Breakdown[device.CompMonitor].Time)
	}
}

func TestWearReported(t *testing.T) {
	f, err := New(artemisConfig(SupplyConfig{Kind: SupplyContinuous}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Monitors commit on every event, so their wear dwarfs their footprint;
	// the runtime's control block likewise re-commits per transition.
	if rep.Wear["monitor"] <= int64(rep.Footprints["monitor"]) {
		t.Errorf("monitor wear %d not above footprint %d",
			rep.Wear["monitor"], rep.Footprints["monitor"])
	}
	if rep.Wear["runtime"] == 0 || rep.Wear["app"] == 0 {
		t.Errorf("wear missing: %v", rep.Wear)
	}
}

func TestBuildAppHook(t *testing.T) {
	// BuildApp constructs a graph against the framework's memory — the
	// camera-style pattern where tasks close over persistent channels.
	var ch *task.Channel
	cfg := Config{
		System:     Artemis,
		StoreKeys:  []string{"pushed", "popped"},
		SpecSource: `produce { maxTries: 5 onFail: skipPath; }`,
		Supply:     SupplyConfig{Kind: SupplyContinuous},
		BuildApp: func(mem *nvm.Memory) (*task.Graph, []task.Persistent, error) {
			var err error
			ch, err = task.NewChannel(mem, "app", "q", 4)
			if err != nil {
				return nil, nil, err
			}
			produce := &task.Task{Name: "produce", Cycles: 1000, Run: func(c *task.Ctx) error {
				ch.Push(7)
				c.Add("pushed", 1)
				return nil
			}}
			consume := &task.Task{Name: "consume", Cycles: 1000, Run: func(c *task.Ctx) error {
				if _, ok := ch.Pop(); ok {
					c.Add("popped", 1)
				}
				return nil
			}}
			g, err := task.NewGraph(&task.Path{ID: 1, Tasks: []*task.Task{produce, consume}})
			if err != nil {
				return nil, nil, err
			}
			return g, []task.Persistent{ch}, nil
		},
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
		t.Fatal("did not complete")
	}
	if f.Store().Get("pushed") != 1 || f.Store().Get("popped") != 1 {
		t.Fatalf("pushed=%g popped=%g", f.Store().Get("pushed"), f.Store().Get("popped"))
	}
	if ch.Len() != 0 {
		t.Fatalf("channel len = %d", ch.Len())
	}
}

func TestBuildAppAndGraphMutuallyExclusive(t *testing.T) {
	cfg := artemisConfig(SupplyConfig{Kind: SupplyContinuous})
	cfg.BuildApp = func(*nvm.Memory) (*task.Graph, []task.Persistent, error) { return nil, nil, nil }
	if _, err := New(cfg); err == nil {
		t.Fatal("Graph + BuildApp accepted")
	}
}

func TestSoakMultiRoundIntermittent(t *testing.T) {
	// A long deterministic soak: twelve rounds of the health benchmark on a
	// weak harvester, hundreds of power failures. Global invariants: the
	// run completes, sample counts are exact multiples of the collect
	// requirement, the average stays physical, and every transmission was
	// committed exactly once (sentCount ≤ 3 per round).
	cfg := artemisConfig(SupplyConfig{
		Kind:         SupplyHarvested,
		CapacitanceF: 220e-6, VMax: 5.0, VOn: 3.2, VOff: 1.8,
		HarvestW: 20e-6,
	})
	cfg.Rounds = 12
	cfg.MaxReboots = 20000
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.NonTerminated {
		t.Fatalf("soak failed: %+v", rep.RunResult)
	}
	if rep.Reboots < 20 {
		t.Fatalf("reboots = %d; the soak should be genuinely intermittent", rep.Reboots)
	}
	st := f.Store()
	tempCount := st.Get("tempCount")
	if tempCount != 120 { // 12 rounds × 10 samples
		t.Errorf("tempCount = %g, want 120", tempCount)
	}
	if avg := st.Get("avgTemp"); avg < 36.4 || avg > 36.8 {
		t.Errorf("avgTemp = %g", avg)
	}
	if sent := st.Get("sentCount"); sent < 12 || sent > 36 {
		t.Errorf("sentCount = %g outside [12, 36]", sent)
	}
	// Wear sanity: a long run wears monitors proportionally to events.
	if rep.Wear["monitor"] < 100*int64(rep.Footprints["monitor"]) {
		t.Errorf("monitor wear %d implausibly low for %d reboots",
			rep.Wear["monitor"], rep.Reboots)
	}
}

// TestReleaseIdempotent pins Framework.Release as one-shot per handle. The
// Memory's own guard is cleared when the pool recycles the image into the
// next deployment, so a second Release through a stale Framework would push
// an image another deployment is actively using back into the pool — the
// third deployment would then run on the second's live FRAM.
func TestReleaseIdempotent(t *testing.T) {
	build := func() *Framework {
		f, err := New(artemisConfig(SupplyConfig{Kind: SupplyContinuous}))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1 := build()
	f1.Release()
	f2 := build() // may recycle f1's image, clearing its Memory-level guard
	f1.Release()  // stale handle: must be a no-op
	f3 := build()
	if f2.MCU().Mem == f3.MCU().Mem {
		t.Fatal("double Release leaked an in-use image back into the pool")
	}
	f2.Release()
	f3.Release()
}
