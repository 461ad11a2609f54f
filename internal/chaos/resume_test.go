package chaos

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/parallel"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// resumeConfig is one deployment the resume differential test sweeps.
// sampled configurations check resumeSample points in tier-1 and every
// point under ARTEMIS_DEEP_CHAOS=1.
type resumeConfig struct {
	name    string
	sampled bool
	build   func() *Explorer
}

// resumeSample is how many points a sampled configuration checks in
// tier-1, and every configuration under the race detector.
const resumeSample = 150

func resumeConfigs() []resumeConfig {
	var cs []resumeConfig
	for _, c := range examplespecs.All() {
		cs = append(cs, resumeConfig{name: "case/" + c.Name, build: func() *Explorer { return NewExplorer(c, nil) }})
	}
	supplies := []struct {
		name   string
		supply core.SupplyConfig
	}{
		{"continuous", core.SupplyConfig{Kind: core.SupplyContinuous}},
		{"980uJ-6m", core.SupplyConfig{Kind: core.SupplyFixedDelay, BudgetUJ: 980, Delay: 6 * simclock.Minute}},
		{"800uJ-1m", core.SupplyConfig{Kind: core.SupplyFixedDelay, BudgetUJ: 800, Delay: simclock.Minute}},
	}
	for _, sys := range []core.System{core.Mayfly, core.Ocelot} {
		for _, s := range supplies {
			cs = append(cs, resumeConfig{name: fmt.Sprintf("%v/%s", sys, s.name),
				build: func() *Explorer { return baselineExplorer(sys, s.supply) }})
		}
	}
	return append(cs,
		resumeConfig{name: "health/800uJ-1m", build: func() *Explorer {
			return NewExplorer(examplespecs.Health(), func(cfg *core.Config) { cfg.Supply = supplies[2].supply })
		}},
		resumeConfig{name: "health/stuck-sensor", build: func() *Explorer {
			app := health.New()
			app.SenseTemp = StuckAt{Value: 40}.Apply
			return NewExplorer(examplespecs.Health(), func(cfg *core.Config) { cfg.Graph = app.Graph })
		}},
		resumeConfig{name: "health/prune", build: func() *Explorer {
			e := NewHealthExplorer(1, 0)
			e.Prune = true
			return e
		}},
		resumeConfig{name: "health/budget", build: func() *Explorer { return NewHealthExplorer(7, 40) }},
		resumeConfig{name: "health/integrity", sampled: true, build: func() *Explorer {
			return NewExplorer(examplespecs.Health(), integrityConfig(100*simclock.Millisecond))
		}},
		resumeConfig{name: "health/telemetry", sampled: true, build: func() *Explorer { return telemetryExplorer(1, 0) }},
	)
}

// TestResumeMatchesReplay holds every resumed crash point to the replayed
// one: a fresh deployment resumed from the recorded state after write k
// must end exactly like a fresh deployment run from the start with a power
// failure injected after write k. Compared are the point's verdict, the
// captured outcome, the runtime's and the integrity layer's counters, the
// tracer's log, the FRAM image hash and counters, the clock and supply,
// and the report's run result, breakdown, footprints and wear. That holds
// at a crash whose reboot exhausts the reboot budget too (the last writes
// of Mayfly's livelocked run at a 6-minute charging delay): no boot
// follows it, so the replayed run's stages still hold what its dead
// attempt staged and the resumed run's what the fresh deployment staged,
// but capture reads the committed image both share.
func TestResumeMatchesReplay(t *testing.T) {
	for _, c := range resumeConfigs() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			e := c.build()
			points, rec, ref, hashes := recordReference(t, e)
			defer rec.Release()
			if (c.sampled && os.Getenv("ARTEMIS_DEEP_CHAOS") != "1") || raceEnabled {
				points = samplePoints(points, resumeSample)
			}
			diffs, err := parallel.Map(context.Background(), points, 2,
				func(_ context.Context, _ int, k int) (string, error) {
					return resumeDiff(e, k, ref, rec, hashes), nil
				})
			if err != nil {
				t.Fatal(err)
			}
			for i, diff := range diffs {
				if diff != "" {
					t.Fatalf("crash point %d of %d: resumed and replayed runs differ: %s", points[i], rec.Writes(), diff)
				}
			}
			t.Logf("%d of %d crash points identical", len(points), rec.Writes())
		})
	}
}

// recordReference runs e's reference run with a recording armed and
// returns e's schedule of crash points, the recording, the reference
// outcome and, when pruning, the image hash after every write.
func recordReference(t *testing.T, e *Explorer) ([]int, *core.Recording, Outcome, []uint64) {
	t.Helper()
	f, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	rec, err := f.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	mem := f.MCU().Mem
	var hashes []uint64
	if e.Prune {
		mem.SetWriteObserver(func() { hashes = append(hashes, mem.Hash()) })
	}
	// A reference that does not complete (Mayfly's livelock at a 6-minute
	// charging delay) still passes through a crash state at every write.
	rep, err := f.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	points, _ := e.schedule(1, rec.Writes(), hashes)
	return points, rec, capture(f, rep, e.Keys), hashes
}

// samplePoints keeps n of points, evenly spaced, first and last included.
func samplePoints(points []int, n int) []int {
	if len(points) <= n {
		return points
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, points[i*(len(points)-1)/(n-1)])
	}
	return out
}

// pointView is everything the differential test compares about one
// crashed run.
type pointView struct {
	Point     PointResult
	Outcome   Outcome
	Report    *core.Report
	Hash      uint64
	Clock     simclock.State
	Supply    energy.State
	Events    any
	Tracer    any
	Integrity any
}

// resumeDiff runs crash point k replayed and resumed and describes the
// first difference, or returns "" when there is none.
func resumeDiff(e *Explorer, k int, ref Outcome, rec *core.Recording, hashes []uint64) string {
	replayed, err := viewPoint(e, k, ref, nil, nil)
	if err != nil {
		return "replay: " + err.Error()
	}
	resumed, err := viewPoint(e, k, ref, rec, hashes)
	if err != nil {
		return "resume: " + err.Error()
	}
	a, b := reflect.ValueOf(replayed), reflect.ValueOf(resumed)
	for i := 0; i < a.NumField(); i++ {
		if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			return fmt.Sprintf("%s\n replayed %+v\n resumed  %+v", a.Type().Field(i).Name,
				a.Field(i).Interface(), b.Field(i).Interface())
		}
	}
	return ""
}

// viewPoint runs crash point k like explorePoint, replayed when rec is nil
// and resumed otherwise, and captures what the test compares.
func viewPoint(e *Explorer, k int, ref Outcome, rec *core.Recording, hashes []uint64) (pointView, error) {
	f, rep, pr, err := e.crashRun(k, rec, hashes)
	if err != nil {
		return pointView{}, err
	}
	defer f.Release()
	if rep != nil && rec != nil {
		f.Tally(rep)
	}
	v := pointView{Report: rep}
	if rep != nil {
		v.Outcome = capture(f, rep, e.Keys)
		pr.Reboots = v.Outcome.Reboots
		pr.Failures = append(pr.Failures, e.judge(ref, v.Outcome)...)
		if e.PostCheck != nil {
			pr.Failures = append(pr.Failures, e.PostCheck(f, ref, v.Outcome)...)
		}
	}
	v.Point = pr
	mcu := f.MCU()
	v.Hash = mcu.Mem.Hash()
	v.Clock, _ = mcu.Clock.State()
	v.Supply, _ = energy.Snapshot(mcu.Supply)
	if tel := f.Telemetry(); tel != nil {
		v.Events, v.Tracer = tel.Events(), tel.State()
	}
	if in := f.Integrity(); in != nil {
		v.Integrity = in.HostState()
	}
	return v, nil
}
