package freshness

import (
	"errors"
	"testing"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
)

// TestCorruptCursorIsTyped checks a boot that loads an out-of-range cursor
// (a soft error in the committed control region) fails with
// task.ErrCorrupt instead of indexing the graph with it.
func TestCorruptCursorIsTyped(t *testing.T) {
	app := health.New()
	mem := nvm.New(64 * 1024)
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, &energy.Continuous{}, device.MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	store, err := task.NewStore(mem, "app", health.Keys())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{MCU: mcu, Graph: app.Graph, Store: store, Bounds: HealthBounds()})
	if err != nil {
		t.Fatal(err)
	}
	rt.init.Set(true)
	rt.ctl.WriteUint64(8, 99) // task index
	rt.ctl.Commit()
	dev := &device.Device{MCU: mcu, MaxReboots: 5}
	if _, err := dev.Run(rt.Boot); !errors.Is(err, task.ErrCorrupt) {
		t.Fatalf("err = %v, want task.ErrCorrupt", err)
	}
}
