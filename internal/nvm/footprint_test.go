package nvm_test

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/nvm"
)

// TestImageFootprint pins the host memory behind a deployment's FRAM: right
// after core.New, every example deployment's 256 KiB image holds at most
// 4 KiB of host bytes, whether it was freshly allocated or recycled from
// the greenhouse deployment.
func TestImageFootprint(t *testing.T) {
	const limit = 4 << 10
	var greenhouse examplespecs.Case
	for _, c := range examplespecs.All() {
		if c.Name == "greenhouse" {
			greenhouse = c
		}
	}
	for _, c := range examplespecs.All() {
		for _, donor := range []*examplespecs.Case{nil, &greenhouse} {
			f := newOnImage(t, c, donor, false)
			mem := f.MCU().Mem
			if got := nvm.HostBytes(mem); got > limit || mem.Size() != 256<<10 {
				t.Errorf("%s on a %s image: %d host bytes for a %d-byte FRAM, want at most %d",
					c.Name, imageKind(donor), got, mem.Size(), limit)
			}
			f.Release()
		}
	}
}
