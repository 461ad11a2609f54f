package nvm_test

import (
	"runtime"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/nvm"
)

// newCaseFramework builds one deployment of c.
func newCaseFramework(t *testing.T, c examplespecs.Case) *core.Framework {
	t.Helper()
	cfg, err := c.Config()
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// largestExampleCase returns the example deployment whose image holds the
// most allocated bytes after a full run.
func largestExampleCase(t *testing.T) examplespecs.Case {
	t.Helper()
	var best examplespecs.Case
	bestUsed := -1
	for _, c := range examplespecs.All() {
		f := newCaseFramework(t, c)
		if _, err := f.Run(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if used := f.MCU().Mem.Used(); used > bestUsed {
			best, bestUsed = c, used
		}
		f.Release()
	}
	return best
}

// newOnImage builds c on a freshly allocated image, or, when donor is set,
// on the image the donor's finished run just handed back to the recycle
// pool. flipLast first flips the donor image's last bit, past every
// allocation. It retries when the pool serves some other image, and skips
// if that never stops.
func newOnImage(t *testing.T, c examplespecs.Case, donor *examplespecs.Case, flipLast bool) *core.Framework {
	t.Helper()
	for attempt := 0; attempt < 10; attempt++ {
		// Two collections empty the recycle pool, so the next image is
		// fresh unless the donor releases one into it.
		runtime.GC()
		runtime.GC()
		var donated *nvm.Memory
		if donor != nil {
			d := newCaseFramework(t, *donor)
			if _, err := d.Run(); err != nil {
				t.Fatalf("donor %s: %v", donor.Name, err)
			}
			donated = d.MCU().Mem
			if flipLast {
				donated.FlipBit(donated.Size()-1, 7)
			}
			d.Release()
		}
		f := newCaseFramework(t, c)
		if mem := f.MCU().Mem; mem.Recycled() == (donor != nil) && (donor == nil || mem == donated) {
			return f
		}
		f.Release()
	}
	t.Skipf("the recycle pool never served the %s image", imageKind(donor))
	return nil
}

// runOnImage runs c to the end on the image newOnImage picks.
func runOnImage(t *testing.T, c examplespecs.Case, donor *examplespecs.Case, flipLast bool) commitOutcome {
	t.Helper()
	f := newOnImage(t, c, donor, flipLast)
	defer f.Release()
	rep, err := f.Run()
	if err != nil {
		t.Fatalf("run on %s image: %v", imageKind(donor), err)
	}
	return outcomeOf(f.MCU().Mem, rep)
}

func imageKind(donor *examplespecs.Case) string {
	if donor == nil {
		return "fresh"
	}
	return donor.Name + " donor"
}

// TestPooledImageMatchesFresh hands the image the largest example
// deployment last used to every example deployment and to the Mayfly and
// Ocelot health runs, through the recycle pool, with and without a bit
// flipped past its allocations. Each run must store the same image bytes
// and charge the same hash, stats, per-owner wear and report as the same
// run on a freshly allocated image.
func TestPooledImageMatchesFresh(t *testing.T) {
	largest := largestExampleCase(t)
	t.Logf("donor: %s", largest.Name)
	for _, c := range commitPathCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			fresh := runOnImage(t, c, nil, false)
			for _, flip := range []bool{false, true} {
				name := c.Name + " on " + largest.Name + "'s image"
				if flip {
					name += " with its last bit flipped"
				}
				diffOutcomes(t, name, "fresh", "recycled", fresh, runOnImage(t, c, &largest, flip))
			}
		})
	}
}
