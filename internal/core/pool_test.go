package core

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/simclock"
)

// A Pool re-arms a released deployment exactly when Checkpoint accepts it
// and it has no tracer; any other goes back as an image, and the next
// Deploy builds anew.
func TestPoolRearmsOnlyCopyableDeployments(t *testing.T) {
	cont := SupplyConfig{Kind: SupplyContinuous}
	for _, c := range []struct {
		name  string
		cfg   func() Config
		arm   func(f *Framework)
		rearm bool
	}{
		{name: "ARTEMIS", cfg: func() Config { return artemisConfig(cont) }, rearm: true},
		{name: "Mayfly", cfg: func() Config {
			return mayflyConfig(SupplyConfig{Kind: SupplyFixedDelay, BudgetUJ: 800, Delay: simclock.Minute})
		}, rearm: true},
		{name: "integrity", cfg: func() Config {
			cfg := artemisConfig(cont)
			cfg.Integrity = true
			return cfg
		}, rearm: true},
		{name: "OTA manager", cfg: func() Config { return swapConfig(t, cont) }},
		{name: "remote monitors", cfg: func() Config {
			cfg := artemisConfig(cont)
			cfg.RemoteMonitors = true
			return cfg
		}},
		{name: "tracer", cfg: func() Config {
			cfg := artemisConfig(cont)
			cfg.Telemetry = true
			return cfg
		}},
		{name: "OnReboot observer", cfg: func() Config { return artemisConfig(cont) },
			arm: func(f *Framework) { f.OnReboot(func(int, simclock.Duration) {}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewPool(c.cfg())
			f, err := p.Deploy()
			if err != nil {
				t.Fatal(err)
			}
			if c.arm != nil {
				c.arm(f)
			}
			if _, err := f.Run(); err != nil {
				t.Fatal(err)
			}
			f.Release()
			g, err := p.Deploy()
			if err != nil {
				t.Fatal(err)
			}
			defer g.Release()
			if rearmed := g.MCU() == f.MCU(); rearmed != c.rearm {
				t.Fatalf("released deployment re-armed: %v, want %v", rearmed, c.rearm)
			}
			if c.rearm && !g.MCU().Mem.Recycled() {
				t.Error("a re-armed deployment's memory does not count as recycled")
			}
			if _, err := g.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
