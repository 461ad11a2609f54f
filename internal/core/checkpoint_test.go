package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
)

// Deployments holding state a crash state cannot copy get a
// *CheckpointError, so their crash points are replayed.
func TestCheckpointRefusesUncopyableState(t *testing.T) {
	cont := SupplyConfig{Kind: SupplyContinuous}
	for _, c := range []struct {
		name string
		cfg  func() Config
		arm  func(f *Framework)
	}{
		{name: "OTA manager", cfg: func() Config { return swapConfig(t, cont) }},
		{name: "remote monitors", cfg: func() Config {
			cfg := artemisConfig(cont)
			cfg.RemoteMonitors = true
			return cfg
		}},
		{name: "burst harvester", cfg: func() Config {
			return artemisConfig(SupplyConfig{Kind: SupplyBurst, CapacitanceF: 470e-6, VMax: 5, VOn: 3.2, VOff: 1.8,
				HarvestW: 10e-3, MeanOn: simclock.Second, MeanOff: simclock.Second, Seed: 1})
		}},
		{name: "access observer", cfg: func() Config {
			cfg := artemisConfig(cont)
			graph := cfg.Graph
			cfg.Graph = nil
			cfg.BuildApp = func(mem *nvm.Memory) (*task.Graph, []task.Persistent, error) {
				mem.SetAccessObserver(func(nvm.AccessOp, int, []byte) {})
				return graph, nil, nil
			}
			return cfg
		}},
		{name: "OnDecision observer", cfg: func() Config {
			cfg := artemisConfig(cont)
			cfg.OnDecision = func(monitor.Event, monitor.Decision) {}
			return cfg
		}},
		{name: "OnReboot observer", cfg: func() Config { return artemisConfig(cont) },
			arm: func(f *Framework) { f.OnReboot(func(int, simclock.Duration) {}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := New(c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			defer f.Release()
			if c.arm != nil {
				c.arm(f)
			}
			var ce *CheckpointError
			if _, err := f.Checkpoint(); !errors.As(err, &ce) {
				t.Fatalf("Checkpoint returned %v, want a *CheckpointError", err)
			}
			if _, err := f.Run(); err != nil {
				t.Fatalf("run after a refused checkpoint: %v", err)
			}
		})
	}
}

// A resumed deployment ends like one crashed after the same write, and
// Resume refuses what it cannot continue.
func TestResumeMatchesCrashedRun(t *testing.T) {
	cfg := func() Config {
		return artemisConfig(SupplyConfig{Kind: SupplyFixedDelay, BudgetUJ: 800, Delay: simclock.Minute})
	}
	ref, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Release()
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	ref.Release()
	if _, err := ref.Checkpoint(); err == nil {
		t.Error("Checkpoint after Run succeeded")
	}
	for _, k := range []int{1, rec.Writes() / 3, rec.Writes() / 2, rec.Writes()} {
		crashed, err := New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		mcu := crashed.MCU()
		mcu.Mem.SetWriteCrashHook(k, func() { panic(device.PowerFailure{At: mcu.Now()}) })
		want, err := crashed.Run()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumed.Resume(rec, k)
		if err != nil {
			t.Fatal(err)
		}
		resumed.Tally(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("write %d:\n resumed %+v\n crashed %+v", k, got, want)
		}
		if a, b := resumed.MCU().Mem.Hash(), crashed.MCU().Mem.Hash(); a != b {
			t.Errorf("write %d: image hash %#x, crashed %#x", k, a, b)
		}
		if _, err := resumed.Resume(rec, k); err == nil {
			t.Errorf("write %d: a second Resume of one framework succeeded", k)
		}
		crashed.Release()
		resumed.Release()
	}
	other, err := New(artemisConfig(SupplyConfig{Kind: SupplyFixedDelay, BudgetUJ: 800, Delay: simclock.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Release()
	if _, err := other.Resume(rec, rec.Writes()+1); err == nil {
		t.Error("Resume past the recorded writes succeeded")
	}
	tel := cfg()
	tel.Telemetry = true
	mismatched, err := New(tel)
	if err != nil {
		t.Fatal(err)
	}
	defer mismatched.Release()
	if _, err := mismatched.Resume(rec, 1); err == nil {
		t.Error("Resume of a deployment with a tracer the recording lacks succeeded")
	}
}
