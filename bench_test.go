// Package bench is the benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation (run them all with
// `go test -bench=. -benchmem`), plus ablation benchmarks for the design
// choices DESIGN.md calls out — interpreted vs generated monitors, coupled
// vs decoupled property checking, and the cost of persisting monitor state
// on every event.
//
// Each FigureN benchmark regenerates that figure's full data series per
// iteration, so ns/op is the cost of reproducing the experiment; the
// figures themselves are printed once under -v via the b.Logf calls.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/tinysystems/artemis-go/internal/chaos"
	"github.com/tinysystems/artemis-go/internal/codegen"
	"github.com/tinysystems/artemis-go/internal/codegen/gen"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/experiments"
	"github.com/tinysystems/artemis-go/internal/fleet"
	"github.com/tinysystems/artemis-go/internal/fleetserver"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/transform"
)

func benchOptions() experiments.Options {
	return experiments.Options{NonTermReboots: 60}
}

func BenchmarkFigure12(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure12(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.RenderFigure12(rows)
	}
	b.Logf("\n%s", out)
}

func BenchmarkFigure13(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure13(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.RenderFigure13(res)
	}
	b.Logf("\n%s", out)
}

func BenchmarkFigure14(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure14(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.RenderFigure14(rows)
	}
	b.Logf("\n%s", out)
}

func BenchmarkFigure15(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure15(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.RenderFigure15(rows)
	}
	b.Logf("\n%s", out)
}

func BenchmarkFigure16(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure16(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.RenderFigure16(rows)
	}
	b.Logf("\n%s", out)
}

func BenchmarkTable2(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.RenderTable2(rows)
	}
	b.Logf("\n%s", out)
}

// BenchmarkSingleRunArtemis measures one complete benchmark-application run
// under ARTEMIS on continuous power — the unit of every figure above.
func BenchmarkSingleRunArtemis(b *testing.B) {
	benchmarkSingleRun(b, core.Artemis)
}

// BenchmarkSingleRunMayfly is the baseline counterpart.
func BenchmarkSingleRunMayfly(b *testing.B) {
	benchmarkSingleRun(b, core.Mayfly)
}

// BenchmarkOcelotRun measures the Ocelot-style freshness-enforcement
// runtime on the same workload: the per-dispatch staleness check plus the
// timestamp commit per producer, with no monitors compiled in.
func BenchmarkOcelotRun(b *testing.B) {
	benchmarkSingleRun(b, core.Ocelot)
}

func benchmarkSingleRun(b *testing.B, sys core.System) {
	// The spec compiles once per process (sweeps share it the same way);
	// per-iteration cost is deployment assembly + the run itself, on a
	// pool-recycled NVM image.
	var compiled *transform.Result
	if sys == core.Artemis {
		var err error
		compiled, err = health.CompiledShared()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := health.New()
		cfg := core.Config{
			System:    sys,
			Graph:     app.Graph,
			StoreKeys: health.Keys(),
			Compiled:  compiled,
			Supply:    core.SupplyConfig{Kind: core.SupplyContinuous},
		}
		switch sys {
		case core.Mayfly:
			cfg.Constraints = mayfly.HealthConstraints()
		case core.Ocelot:
			cfg.FreshnessBounds = freshness.HealthBounds()
		}
		f, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := f.Run()
		if err != nil || !rep.Completed {
			b.Fatalf("run failed: %v %+v", err, rep)
		}
		f.Release()
	}
}

// BenchmarkTelemetry measures the observability tax on a complete health
// run: "off" is the zero-cost baseline (nil tracer, every hook a no-op),
// "volatile" records every event in host memory only, and "flight64"
// additionally persists each event batch through a depth-64 NVM ring —
// the full crash-resilient configuration chaos campaigns use.
func BenchmarkTelemetry(b *testing.B) {
	cases := []struct {
		name        string
		telemetry   bool
		flightDepth int
	}{
		{"off", false, 0},
		{"volatile", true, 0},
		{"flight64", true, 64},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				app := health.New()
				f, err := core.New(core.Config{
					System:      core.Artemis,
					Graph:       app.Graph,
					StoreKeys:   health.Keys(),
					SpecSource:  health.SpecSource,
					Supply:      core.SupplyConfig{Kind: core.SupplyContinuous},
					Telemetry:   c.telemetry,
					FlightDepth: c.flightDepth,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := f.Run()
				if err != nil || !rep.Completed {
					b.Fatalf("run failed: %v %+v", err, rep)
				}
				if c.telemetry && f.Telemetry().EventCount() == 0 {
					b.Fatal("instrumented run recorded nothing")
				}
			}
		})
	}
}

// benchEvents is a representative event stream over the benchmark alphabet.
func benchEvents(n int) []ir.Event {
	tasks := []string{"bodyTemp", "calcAvg", "accel", "send", "micSense"}
	evs := make([]ir.Event, n)
	for i := range evs {
		kind := ir.EvStart
		if i%2 == 1 {
			kind = ir.EvEnd
		}
		evs[i] = ir.Event{
			Kind: kind,
			Task: tasks[i%len(tasks)],
			Time: simclock.Time(simclock.Duration(i) * simclock.Second),
			Path: 1 + i%3,
			Data: 36.5,
		}
	}
	return evs
}

// BenchmarkAblationInterpretedMonitor measures monitor event processing
// through the IR interpreter (the differential reference; deployments run
// the closure-compiled engine).
func BenchmarkAblationInterpretedMonitor(b *testing.B) {
	res, err := health.New().Compile()
	if err != nil {
		b.Fatal(err)
	}
	envs := make([]*ir.VolatileEnv, len(res.Program.Machines))
	for i, m := range res.Program.Machines {
		envs[i] = ir.NewVolatileEnv(m)
	}
	evs := benchEvents(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evs[i%len(evs)]
		for mi, m := range res.Program.Machines {
			if _, err := ir.Step(m, envs[mi], ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationGeneratedMonitor measures the same event processing
// through the generated Go monitors (the paper's compiled-C analogue),
// quantifying what code generation buys over interpretation.
func BenchmarkAblationGeneratedMonitor(b *testing.B) {
	steppers := gen.NewProgram()
	evs := benchEvents(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evs[i%len(evs)]
		for _, s := range steppers {
			s.Step(ev)
		}
	}
}

// BenchmarkAblationCompiledMonitor measures the compiled FSM step alone:
// the health program's closure-compiled machines over volatile slots, one
// shared frame staged once per event, then StepStaged on every machine.
// BenchmarkAblationPersistentMonitor adds FRAM persistence to this loop.
func BenchmarkAblationCompiledMonitor(b *testing.B) {
	res, err := health.New().Compile()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := res.Stepper()
	if err != nil {
		b.Fatal(err)
	}
	slots := make([]*codegen.VolatileSlots, len(res.Program.Machines))
	for i, m := range res.Program.Machines {
		if slots[i], err = codegen.NewVolatileSlots(m); err != nil {
			b.Fatal(err)
		}
	}
	frame := codegen.NewFrame()
	evs := benchEvents(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame.StageEvent(&evs[i%len(evs)], uint64(i)+1)
		for mi, sl := range slots {
			if _, err := prog.Machine(mi).StepStaged(frame, sl); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationPersistentMonitor measures event delivery with monitor
// state in (simulated) FRAM with per-event atomic commits — the full
// power-failure-resilient path, stepped by the compiled engine every
// monitor.Set runs — against the volatile baselines above.
func BenchmarkAblationPersistentMonitor(b *testing.B) {
	res, err := health.New().Compile()
	if err != nil {
		b.Fatal(err)
	}
	mem := nvm.New(256 * 1024)
	set, err := monitor.NewSet(mem, res)
	if err != nil {
		b.Fatal(err)
	}
	set.Reset()
	evs := benchEvents(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := monitor.Event{Event: evs[i%len(evs)], Seq: uint64(i) + 1}
		if _, err := set.Deliver(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCoupledCheck measures Mayfly-style inline property
// checking (one coupled pass over the constraint list), the architecture
// the paper argues against; compare with the decoupled monitor benchmarks.
func BenchmarkAblationCoupledCheck(b *testing.B) {
	app := health.New()
	constraints := mayfly.HealthConstraints()
	names := app.Graph.TaskNames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := names[i%len(names)]
		n := 0
		for _, c := range constraints {
			if c.Task == name {
				n++
			}
		}
		_ = n
	}
}

// BenchmarkSpecCompile measures the generator pipeline front half:
// specification parse + validation + lowering to IR machines.
func BenchmarkSpecCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := health.New().Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodegen measures the model-to-text back half: IR to Go source.
func BenchmarkCodegen(b *testing.B) {
	res, err := health.New().Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Generate(res.Program, "monitors"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkerCounts is the worker ladder for the parallel-executor
// benchmarks: serial, two workers, and one per CPU (deduplicated, so on a
// single-core machine the ladder is just 1 and 2).
func benchWorkerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkExhaustiveSweep measures the exhaustive crash-point exploration
// (internal/chaos Explorer, budget 0 = every committing write) at each
// worker count. Output is byte-identical across the ladder; only wall-clock
// should move. The custom crash-points/sec metric is the fan-out headline
// benchjson records.
func BenchmarkExhaustiveSweep(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			points := 0
			for i := 0; i < b.N; i++ {
				ex := chaos.NewHealthExplorer(7, 0)
				ex.Workers = w
				rep, err := ex.Run()
				if err != nil {
					b.Fatal(err)
				}
				points += rep.Explored
			}
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "crash-points/sec")
		})
	}
}

// BenchmarkFlipCampaign measures the bit-flip fault campaign (24 seeded
// runs) at each worker count. Flip sites are pre-drawn before fan-out, so
// the sampled faults are identical at every count.
func BenchmarkFlipCampaign(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp := chaos.NewHealthFlipCampaign(5, 24, false, 0)
				camp.Workers = w
				if _, err := camp.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpecSwap measures a complete health run with an over-the-air
// spec update queued at event 2: the chunked bundle transfer, the live FSM
// migration, and the atomic activation flip, on continuous power over a
// perfect link — the end-to-end cost of reprogramming the monitors without
// restarting the application.
func BenchmarkSpecSwap(b *testing.B) {
	v1, err := health.CompiledShared()
	if err != nil {
		b.Fatal(err)
	}
	v2, err := health.CompiledSharedV2()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := health.New()
		f, err := core.New(core.Config{
			System:       core.Artemis,
			Graph:        app.Graph,
			StoreKeys:    health.Keys(),
			Compiled:     v1,
			Supply:       core.SupplyConfig{Kind: core.SupplyContinuous},
			SwapCompiled: v2,
			SwapAt:       2,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := f.Run()
		if err != nil || !rep.Completed {
			b.Fatalf("run failed: %v %+v", err, rep)
		}
		if st := f.OTA().Stats(); st.Swaps != 1 {
			b.Fatalf("swap did not happen: %+v", st)
		}
	}
}

// fleetWorkerLadder is the worker ladder for BenchmarkFleetSteps: 1, 2, 4,
// 8 regardless of host CPU count, so baselines from different machines name
// the same sub-benchmarks. Entries above GOMAXPROCS measure time-slicing,
// not parallel speedup (benchjson's speedup table says so explicitly).
func fleetWorkerLadder() []int { return []int{1, 2, 4, 8} }

// BenchmarkFleetSteps measures the sharded fleet stepping engine: 16
// heterogeneous devices (the example deployments mixed) over 8 shards, one
// full fleet step per op. The custom device-steps/sec metric is the
// throughput headline; the digest is checked against the serial run so the
// benchmark also re-proves scheduling-independence on every run.
func BenchmarkFleetSteps(b *testing.B) {
	const devices, shards = 16, 8
	ref, err := fleet.New(fleet.Config{Devices: devices, Shards: shards, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	refStep, err := ref.Step(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range fleetWorkerLadder() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng, err := fleet.New(fleet.Config{Devices: devices, Shards: shards, Workers: w})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var last fleet.StepResult
			for i := 0; i < b.N; i++ {
				if last, err = eng.Step(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if eng.Steps() == 1 && last.Digest != refStep.Digest {
				b.Fatalf("workers=%d digest %#x diverged from serial %#x", w, last.Digest, refStep.Digest)
			}
			b.ReportMetric(float64(devices)*float64(b.N)/b.Elapsed().Seconds(), "device-steps/sec")
		})
	}
}

// BenchmarkNVMWrite pins the FRAM write path — the innermost loop of every
// simulation — at zero allocations per store.
func BenchmarkNVMWrite(b *testing.B) {
	mem := nvm.New(4096)
	reg := mem.MustAlloc("bench", "scratch", 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.WriteUint64(0, uint64(i))
		reg.SetByteAt(16, byte(i))
		reg.Put32(24, uint32(i))
	}
}

// BenchmarkCommit measures the NVM commit-group flip layer with no hook
// armed, the state every deployment runs in: "private" commits one
// monitor-sized region on its own selector, "group" a three-member group
// on a shared one — a monitor step and a task boundary. Each op stages one
// changed word first, so the shadow copy and wear do real work; the hash
// is only marked stale (BenchmarkNVMRehash prices the recompute). Both pin
// the commit at zero allocations.
func BenchmarkCommit(b *testing.B) {
	b.Run("private", func(b *testing.B) {
		mem := nvm.New(4096)
		c := nvm.MustAllocCommitted(mem, "bench", "fsm", 88)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.WriteUint64(8, uint64(i))
			c.Commit()
		}
	})
	b.Run("group", func(b *testing.B) {
		mem := nvm.New(4096)
		g := nvm.MustNewCommitGroup(mem, "bench", "boundary")
		var cs [3]*nvm.Committed
		for i := range cs {
			cs[i] = nvm.MustAllocCommitted(mem, "bench", fmt.Sprintf("member%d", i), 64)
			cs[i].Join(g)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs[i%len(cs)].WriteUint64(0, uint64(i))
			g.Commit()
		}
	})
}

// BenchmarkNVMHash pins Memory.Hash's clean path at O(1): the digest is
// cached until the next store, so re-reading it on an unchanged 256 KiB
// image costs one flag test and one load.
func BenchmarkNVMHash(b *testing.B) {
	mem := nvm.New(256 * 1024)
	reg := mem.MustAlloc("bench", "scratch", 64)
	reg.WriteUint64(0, 0xdeadbeef)
	b.ReportAllocs()
	b.ResetTimer()
	var h uint64
	for i := 0; i < b.N; i++ {
		h ^= mem.Hash()
	}
	_ = h
}

// BenchmarkNVMRehash measures the fingerprint's recompute on a real image:
// the health deployment's, after a full run (its 1,923 allocated bytes).
// Each op stores one word and reads Hash, which then passes over the
// allocated image once — what a fleet device-step pays for its digest.
func BenchmarkNVMRehash(b *testing.B) {
	cfg, err := examplespecs.HealthConfig()
	if err != nil {
		b.Fatal(err)
	}
	f, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Release()
	if _, err := f.Run(); err != nil {
		b.Fatal(err)
	}
	mem := f.MCU().Mem
	reg := mem.MustAlloc("bench", "scratch", 8)
	b.ReportAllocs()
	b.ResetTimer()
	var h uint64
	for i := 0; i < b.N; i++ {
		reg.WriteUint64(0, uint64(i))
		h ^= mem.Hash()
	}
	_ = h
}

// BenchmarkAblationThreadedMonitor measures the ImmortalThreads-style
// continuation dispatch (one persistent program-counter write per machine
// per event) against the commit/replay dispatch of
// BenchmarkAblationPersistentMonitor.
func BenchmarkAblationThreadedMonitor(b *testing.B) {
	res, err := health.New().Compile()
	if err != nil {
		b.Fatal(err)
	}
	mem := nvm.New(256 * 1024)
	set, err := monitor.NewSet(mem, res)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := monitor.NewThreadedSet(mem, set)
	if err != nil {
		b.Fatal(err)
	}
	ts.Reset()
	evs := benchEvents(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := monitor.Event{Event: evs[i%len(evs)], Seq: uint64(i) + 1}
		if _, err := ts.Deliver(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetServerSteps measures the fleet serving layer end to end:
// one server-driven fleet step per op over 16 heterogeneous devices —
// reshard bookkeeping, queue handoff, the engine step, and the stats
// fold-back. The digest is checked against a serial reference server so
// the benchmark re-proves scheduling-independence of the serving layer on
// every run; device-steps/sec is the fleet-serving throughput headline.
func BenchmarkFleetServerSteps(b *testing.B) {
	const devices = 16
	seed := func(workers int) *fleetserver.Server {
		b.Helper()
		s, err := fleetserver.New(fleetserver.Config{Shards: 8, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		specs := s.SpecNames()
		for i := 0; i < devices; i++ {
			if _, err := s.Register(fmt.Sprintf("dev-%d", i), specs[i%len(specs)]); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	ref := seed(1)
	if _, err := ref.StepOnce(context.Background()); err != nil {
		b.Fatal(err)
	}
	for _, w := range fleetWorkerLadder() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := seed(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.StepOnce(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if s.Steps() == 1 && s.Digest() != ref.Digest() {
				b.Fatalf("workers=%d digest %#x diverged from serial %#x", w, s.Digest(), ref.Digest())
			}
			b.ReportMetric(float64(devices)*float64(b.N)/b.Elapsed().Seconds(), "device-steps/sec")
		})
	}
}

// BenchmarkFleetServerIngest measures batched event ingestion through the
// HTTP handler: one POST /v1/events:batch of 16 events per op, stepping the
// fleet to drain whenever backpressure answers 429. events/sec is the
// ingest throughput headline.
func BenchmarkFleetServerIngest(b *testing.B) {
	s, err := fleetserver.New(fleetserver.Config{Shards: 4, QueueDepth: 256})
	if err != nil {
		b.Fatal(err)
	}
	const devices, batch = 8, 16
	for i := 0; i < devices; i++ {
		if _, err := s.Register(fmt.Sprintf("dev-%d", i), "health"); err != nil {
			b.Fatal(err)
		}
	}
	var body bytes.Buffer
	body.WriteString(`{"events":[`)
	for i := 0; i < batch; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"device":"dev-%d","kind":"start","task":"send"}`, i%devices)
	}
	body.WriteString(`]}`)
	payload := body.Bytes()
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/events:batch", bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == 429 {
			b.StopTimer()
			if _, err := s.StepOnce(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			req = httptest.NewRequest("POST", "/v1/events:batch", bytes.NewReader(payload))
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, req)
		}
		if rec.Code != 200 {
			b.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
