// Command artemis-sim runs the wearable health-monitoring benchmark on the
// simulated intermittent device and reports what happened: completion or
// non-termination, timing, energy, decisions, and memory footprints.
//
//	artemis-sim                          # ARTEMIS, continuous power
//	artemis-sim -charging 6m             # 800 µJ boots, 6-minute recharges
//	artemis-sim -system mayfly -charging 6m
//	artemis-sim -system ocelot -charging 6m -budget 980   # freshness enforcement: re-collect stale inputs
//	artemis-sim -system ocelot -freshness-bound 8m        # loosen the accel->send staleness bound
//	artemis-sim -temp 39.2               # feverish patient: completePath fires
//	artemis-sim -harvest 5e-6            # physical capacitor + 5 µW harvester
//	artemis-sim -show-ir                 # print the generated monitor machines
//	artemis-sim -app camera -rounds 6    # the Camaroptera-style camera node
//	artemis-sim -burst 40ms -seed 7      # bursty harvester, reproducible schedule
//	artemis-sim -chaos -seed 42          # fault-injection campaign (internal/chaos)
//	artemis-sim -integrity -charging 6m  # self-healing NVM layer: CRC guards + scrub + repair
//	artemis-sim -watchdog-limit 5 -charging 1s -budget 5   # break starved-task boot loops
//	artemis-sim -swap-spec -swap-at 3    # over-the-air update to the v2 spec mid-run
//	artemis-sim -swap-spec -swap-chunk-loss 0.3 -seed 7    # lossy OTA transfer; swap or clean rollback
//	artemis-sim -rounds 2000 -cpuprofile cpu.out          # profile the hot path (go tool pprof cpu.out)
//	artemis-sim -rounds 2000 -memprofile mem.out          # heap profile of the same run
//	artemis-sim -fleet 64 -shards 8 -workers 0            # sharded fleet stepping engine, one step
//	artemis-sim -fleet 64 -fleet-steps 10 -metrics fleet.prom   # per-shard Prometheus counters
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/tinysystems/artemis-go/internal/action"
	"github.com/tinysystems/artemis-go/internal/camera"
	"github.com/tinysystems/artemis-go/internal/chaos"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/fleet"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/parallel"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "artemis-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("artemis-sim", flag.ContinueOnError)
	var (
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		appName  = fs.String("app", "health", "application: health or camera")
		system   = fs.String("system", "artemis", "runtime: artemis, mayfly, or ocelot")
		charging = fs.String("charging", "", "charging delay (e.g. 6m, 90s); empty = continuous power")
		budget   = fs.Float64("budget", 800, "usable energy per boot in µJ (with -charging)")
		harvest  = fs.Float64("harvest", 0, "harvested power in watts; selects the physical capacitor model")
		temp     = fs.Float64("temp", 36.6, "simulated body temperature")
		rounds   = fs.Int("rounds", 1, "application rounds")
		reboots  = fs.Int("reboots", 200, "reboot budget before declaring non-termination")
		showIR   = fs.Bool("show-ir", false, "print the generated monitor state machines")
		verbose  = fs.Bool("v", false, "log every decision and reboot")
		seed     = fs.Int64("seed", 1, "RNG seed for -burst supplies and -chaos campaigns")
		burst    = fs.String("burst", "", "mean on-dwell of a bursty harvester (e.g. 40ms); selects the burst supply")
		burstOff = fs.String("burst-off", "", "mean off-dwell of the bursty harvester (defaults to the on-dwell)")
		runChaos = fs.Bool("chaos", false, "run the fault-injection campaign against the health benchmark")
		crashPts = fs.Int("chaos-crash-points", 0, "crash points to sample in the chaos campaign (0 = exhaustive)")
		faultRun = fs.Int("chaos-fault-runs", 5, "seeded runs per radio / bit-flip fault family")
		useInteg = fs.Bool("integrity", false, "enable the self-healing NVM integrity layer (CRC guards + scrubber + repair)")
		scrubStr = fs.String("scrub-interval", "1s", "integrity scrub period (e.g. 500ms); 0 disables the background scrubber")
		watchdog = fs.Int("watchdog-limit", 0, "consecutive boots dying at the same task before the watchdog fails the path; 0 disables")
		workers  = fs.Int("workers", 1, "concurrent runs per chaos fault family (with -chaos); 0 = one per CPU, reports identical at any count")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto / chrome://tracing)")
		metOut   = fs.String("metrics", "", "write Prometheus-style text metrics to this file")
		flight   = fs.Int("flight", 0, "telemetry flight-recorder depth in events (crash-resilient NVM ring); 0 = volatile tracing only")
		dumpFSM  = fs.String("dump-fsm", "", "write each generated monitor machine as Graphviz DOT into this directory")
		swapSpec = fs.Bool("swap-spec", false, "queue an over-the-air update to the v2 (loosened-bounds) health spec mid-run")
		swapAt   = fs.Uint64("swap-at", 2, "runtime event sequence number after which the OTA transfer starts (with -swap-spec)")
		swapLoss = fs.Float64("swap-chunk-loss", 0, "per-attempt drop probability on the OTA transfer link (with -swap-spec)")
		freshStr = fs.String("freshness-bound", "", "override the accel->send staleness bound (e.g. 8m; with -system ocelot)")
		fleetN   = fs.Int("fleet", 0, "host a fleet of N heterogeneous devices on the sharded stepping engine; 0 = single-device mode. The report's digest line is the determinism anchor: byte-identical at any -shards/-workers combination")
		shards   = fs.Int("shards", 0, "fleet shards (with -fleet); 0 = one per CPU; the digest line is identical at any count")
		fleetStp = fs.Int("fleet-steps", 1, "fleet steps to run (with -fleet); each step runs every device once")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })

	// Profiling covers everything from here to exit — a single run is over
	// in microseconds, so meaningful profiles come from long invocations
	// (e.g. -rounds 2000, or a -chaos campaign).
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("-cpuprofile: %v", cerr)
			}
		}()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, ferr := os.Create(path)
			if ferr == nil {
				runtime.GC() // settle the heap so the profile shows live data
				ferr = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); ferr == nil {
					ferr = cerr
				}
			}
			if ferr != nil && err == nil {
				err = fmt.Errorf("-memprofile: %v", ferr)
			}
		}()
	}

	// Reject nonsensical combinations up front, before any simulation runs.
	if *watchdog < 0 {
		return fmt.Errorf("-watchdog-limit %d: must be >= 0", *watchdog)
	}
	scrub, err := simclock.ParseDuration(*scrubStr)
	if err != nil {
		return fmt.Errorf("-scrub-interval %q: %v", *scrubStr, err)
	}
	if scrub < 0 {
		return fmt.Errorf("-scrub-interval %q: must not be negative", *scrubStr)
	}
	if (*useInteg || *watchdog > 0) && *system != "artemis" {
		return fmt.Errorf("-integrity and -watchdog-limit require -system artemis (the baselines have no self-healing layer)")
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d: must be >= 0 (0 = one per CPU)", *workers)
	}
	if *workers != 1 && !*runChaos && *fleetN == 0 {
		return fmt.Errorf("-workers parallelises the -chaos fault families and the -fleet shards; a single simulation run has nothing to fan out")
	}
	if *fleetN < 0 {
		return fmt.Errorf("-fleet %d: must be >= 0 (0 = single-device mode)", *fleetN)
	}
	if (explicit["shards"] || explicit["fleet-steps"]) && *fleetN == 0 {
		return fmt.Errorf("-shards and -fleet-steps configure the -fleet engine; add -fleet N")
	}
	if *fleetN > 0 {
		switch {
		case *runChaos || *swapSpec:
			return fmt.Errorf("-fleet conflicts with -chaos and -swap-spec (the fleet's device mix is fixed)")
		case *showIR || *dumpFSM != "" || *traceOut != "":
			return fmt.Errorf("-fleet hosts many deployments; -show-ir, -dump-fsm, and -trace need a single one")
		case *shards < 0:
			return fmt.Errorf("-shards %d: must be >= 0 (0 = one per CPU)", *shards)
		case *fleetStp <= 0:
			return fmt.Errorf("-fleet-steps %d: must be positive", *fleetStp)
		}
		return runFleet(w, *fleetN, *shards, *workers, *fleetStp, *metOut)
	}
	if *flight < 0 {
		return fmt.Errorf("-flight %d: must be >= 0 (0 disables the NVM flight recorder)", *flight)
	}
	if (*traceOut != "" || *metOut != "") && *system == "mayfly" {
		return fmt.Errorf("-trace/-metrics require -system artemis or ocelot (the Mayfly baseline has no telemetry hooks)")
	}
	if *flight > 0 && *system != "artemis" {
		return fmt.Errorf("-flight requires -system artemis (the NVM flight recorder lives in the ARTEMIS runtime)")
	}
	var freshBound simclock.Duration
	if *freshStr != "" {
		if *system != "ocelot" {
			return fmt.Errorf("-freshness-bound configures the Ocelot-style enforcement runtime; add -system ocelot")
		}
		freshBound, err = simclock.ParseDuration(*freshStr)
		if err != nil {
			return fmt.Errorf("-freshness-bound %q: %v", *freshStr, err)
		}
		if freshBound <= 0 {
			return fmt.Errorf("-freshness-bound %q: must be positive", *freshStr)
		}
	}
	if *dumpFSM != "" && *runChaos {
		return fmt.Errorf("-dump-fsm needs a single compiled deployment; drop -chaos")
	}
	if *swapSpec {
		switch {
		case *runChaos:
			return fmt.Errorf("-swap-spec conflicts with -chaos (the campaign queues its own spec swaps)")
		case *system != "artemis":
			return fmt.Errorf("-swap-spec requires -system artemis (only the ARTEMIS runtime hosts a monitor deployment to reprogram)")
		case *appName != "health":
			return fmt.Errorf("-swap-spec updates the health specification; -app %s is not supported", *appName)
		case *swapLoss < 0 || *swapLoss >= 1:
			return fmt.Errorf("-swap-chunk-loss %g: must be in [0, 1)", *swapLoss)
		}
	} else if explicit["swap-at"] || explicit["swap-chunk-loss"] {
		return fmt.Errorf("-swap-at and -swap-chunk-loss configure the -swap-spec update; add -swap-spec")
	}
	if *dumpFSM != "" && *system != "artemis" {
		return fmt.Errorf("-dump-fsm requires -system artemis (the Mayfly baseline compiles no monitor machines)")
	}
	if *runChaos {
		switch {
		case *burst != "" || *burstOff != "" || *charging != "" || *harvest > 0:
			return fmt.Errorf("-chaos defines its own supply models; drop -burst/-burst-off/-charging/-harvest")
		case *appName != "health":
			return fmt.Errorf("-chaos targets the health benchmark; -app %s is not supported", *appName)
		case *system != "artemis":
			return fmt.Errorf("-chaos targets the ARTEMIS runtime; -system %s is not supported", *system)
		case *crashPts < 0:
			return fmt.Errorf("-chaos-crash-points %d: must be >= 0 (0 = exhaustive)", *crashPts)
		case *faultRun <= 0:
			return fmt.Errorf("-chaos-fault-runs %d: must be positive", *faultRun)
		}
		camp := chaos.NewHealthCampaign(*seed, *crashPts, *faultRun, *faultRun, *useInteg, *flight)
		if *workers == 0 {
			camp.Workers = parallel.DefaultWorkers()
		} else {
			camp.Workers = *workers
		}
		rep, err := camp.Run()
		if err != nil {
			return err
		}
		fmt.Fprint(w, rep.String())
		if *traceOut != "" || *metOut != "" {
			// The exported artifacts come from one dedicated serial
			// instrumented run on the flip campaign's supply, not from the
			// campaign's worker pool, so they are byte-identical at any
			// -workers count. Written before the pass/fail verdict so a
			// failing campaign still leaves its artifacts behind.
			if err := writeChaosTelemetry(*traceOut, *metOut, *flight, *useInteg); err != nil {
				return err
			}
		}
		if rep.Failures() > 0 {
			return fmt.Errorf("chaos campaign found %d failures", rep.Failures())
		}
		return nil
	}

	cfg := core.Config{
		Rounds:        *rounds,
		MaxReboots:    *reboots,
		Supply:        core.SupplyConfig{Kind: core.SupplyContinuous},
		Integrity:     *useInteg,
		WatchdogLimit: *watchdog,
		Telemetry:     *traceOut != "" || *metOut != "" || *flight > 0,
		FlightDepth:   *flight,
	}
	if *useInteg {
		if scrub == 0 {
			cfg.ScrubInterval = -1 // boot-time verification only
		} else {
			cfg.ScrubInterval = scrub
		}
	}
	var outputKeys []string
	switch *appName {
	case "health":
		app := health.NewWithTemp(*temp)
		cfg.Graph = app.Graph
		cfg.StoreKeys = health.Keys()
		cfg.SpecSource = health.SpecSource
		outputKeys = []string{"sentCount", "tempCount", "avgTemp", "heartRate"}
	case "camera":
		cfg.SpecSource = camera.SpecSource
		cfg.StoreKeys = camera.Keys()
		cfg.BuildApp = func(mem *nvm.Memory) (*task.Graph, []task.Persistent, error) {
			app, err := camera.New(mem, 2)
			if err != nil {
				return nil, nil, err
			}
			return app.Graph, []task.Persistent{app.Chunks}, nil
		}
		outputKeys = []string{"frames", "chunksMade", "chunksSent", "classification"}
	default:
		return fmt.Errorf("unknown -app %q (want health or camera)", *appName)
	}
	switch *system {
	case "artemis":
		cfg.System = core.Artemis
	case "mayfly":
		if *appName != "health" {
			return fmt.Errorf("the Mayfly baseline supports only -app health")
		}
		cfg.System = core.Mayfly
		cfg.Constraints = mayfly.HealthConstraints()
	case "ocelot":
		if *appName != "health" {
			return fmt.Errorf("the Ocelot-style freshness runtime supports only -app health")
		}
		cfg.System = core.Ocelot
		bounds := freshness.HealthBounds()
		if freshBound > 0 {
			for i := range bounds {
				bounds[i].Age = freshBound
			}
		}
		cfg.FreshnessBounds = bounds
	default:
		return fmt.Errorf("unknown -system %q (want artemis, mayfly, or ocelot)", *system)
	}
	if *swapSpec {
		v2, err := health.CompiledSharedV2()
		if err != nil {
			return err
		}
		cfg.SwapCompiled = v2
		cfg.SwapAt = *swapAt
		if *swapLoss > 0 {
			cfg.SwapLink = chaos.NewLossyLink(*seed, *swapLoss, 0)
		}
	}

	switch {
	case *burst != "":
		on, err := simclock.ParseDuration(*burst)
		if err != nil {
			return err
		}
		off := on
		if *burstOff != "" {
			if off, err = simclock.ParseDuration(*burstOff); err != nil {
				return err
			}
		}
		hw := *harvest
		if hw <= 0 {
			hw = 5e-3
		}
		cfg.Supply = core.SupplyConfig{
			Kind:         core.SupplyBurst,
			CapacitanceF: 220e-6, VMax: 5.0, VOn: 3.2, VOff: 1.8,
			HarvestW: hw, MeanOn: on, MeanOff: off, Seed: *seed,
		}
	case *harvest > 0:
		cfg.Supply = core.SupplyConfig{
			Kind:         core.SupplyHarvested,
			CapacitanceF: 220e-6, VMax: 5.0, VOn: 3.2, VOff: 1.8,
			HarvestW: *harvest,
		}
	case *charging != "":
		d, err := simclock.ParseDuration(*charging)
		if err != nil {
			return err
		}
		cfg.Supply = core.SupplyConfig{Kind: core.SupplyFixedDelay, BudgetUJ: *budget, Delay: d}
	}
	if *verbose {
		cfg.OnDecision = func(ev monitor.Event, d monitor.Decision) {
			fmt.Fprintf(w, "t=%-12s %v(%s): %v by %s (path %d)\n",
				trace.FormatDuration(simclock.Duration(ev.Time)), ev.Kind, ev.Task, d.Action, d.Machine, d.Path)
		}
	}

	f, err := core.New(cfg)
	if err != nil {
		return err
	}
	if *showIR && f.CompiledIR() != nil {
		fmt.Fprintln(w, f.CompiledIR().String())
	}
	if *dumpFSM != "" {
		prog := f.CompiledIR()
		if prog == nil {
			return fmt.Errorf("-dump-fsm: deployment compiled no monitor machines")
		}
		if err := dumpFSMs(*dumpFSM, prog); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d machine(s) to %s\n", len(prog.Machines), *dumpFSM)
	}
	if *verbose {
		f.OnReboot(func(n int, off simclock.Duration) {
			fmt.Fprintf(w, "power failure #%d: charging for %s\n", n, trace.FormatDuration(off))
		})
	}

	rep, err := f.Run()
	if err != nil {
		return err
	}
	printReport(w, f, rep, outputKeys)
	return writeTelemetry(f, *traceOut, *metOut)
}

// runFleet drives the sharded fleet stepping engine: n heterogeneous
// devices (the example deployments mixed), stepped for the requested number
// of fleet steps. The digest line is the determinism anchor — byte-identical
// at any -shards/-workers combination; the throughput line is wall-clock
// and varies with the host.
func runFleet(w io.Writer, n, shards, workers, steps int, metricsPath string) error {
	eng, err := fleet.New(fleet.Config{Devices: n, Shards: shards, Workers: workers})
	if err != nil {
		return err
	}
	start := time.Now()
	var last fleet.StepResult
	for i := 0; i < steps; i++ {
		if last, err = eng.Step(context.Background()); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	total := eng.Steps() * uint64(eng.Devices())
	fmt.Fprintf(w, "fleet:      %d devices over %d shards, %d step(s)\n", eng.Devices(), eng.ShardCount(), eng.Steps())
	fmt.Fprintf(w, "digest:     %016x (%d device-steps)\n", last.Digest, total)
	fmt.Fprintf(w, "throughput: %.0f device-steps/sec (%.3fs wall)\n",
		float64(total)/elapsed.Seconds(), elapsed.Seconds())
	if err := writeFile(metricsPath, eng.WriteMetrics); err != nil {
		return fmt.Errorf("-metrics: %v", err)
	}
	return nil
}

// writeTelemetry exports the run's trace and metrics to the requested paths.
// Both paths empty is a no-op, so every non-instrumented run passes through.
func writeTelemetry(f *core.Framework, tracePath, metricsPath string) error {
	tel := f.Telemetry()
	if tel == nil {
		if tracePath != "" || metricsPath != "" {
			return fmt.Errorf("telemetry not enabled on this deployment")
		}
		return nil
	}
	if err := writeFile(tracePath, tel.ChromeTrace); err != nil {
		return fmt.Errorf("-trace: %v", err)
	}
	if err := writeFile(metricsPath, tel.Metrics); err != nil {
		return fmt.Errorf("-metrics: %v", err)
	}
	return nil
}

// writeFile creates path and fills it through emit, reporting the first
// error of the three steps. An empty path is a no-op.
func writeFile(path string, emit func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// writeChaosTelemetry runs one deployment of the flip campaign (800 µJ
// boots, 1 s recharge, the integrity layer as the campaign runs it),
// instrumented with a flight recorder, and exports its artifacts. Serial
// and RNG-free, so the output never depends on the campaign's -workers
// fan-out.
func writeChaosTelemetry(tracePath, metricsPath string, flightDepth int, withIntegrity bool) error {
	if flightDepth == 0 {
		flightDepth = 64
	}
	f, err := chaos.NewFlipCampaign(examplespecs.Health(), 0, 1, withIntegrity, flightDepth).Build()
	if err != nil {
		return err
	}
	if _, err := f.Run(); err != nil {
		return err
	}
	return writeTelemetry(f, tracePath, metricsPath)
}

// dumpFSMs writes one Graphviz file per compiled monitor machine, named
// after the machine, plus a combined monitors.dot with every cluster.
func dumpFSMs(dir string, prog *ir.Program) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, m := range prog.Machines {
		doc := ir.DOT(&ir.Program{Machines: []*ir.Machine{m}})
		if err := os.WriteFile(filepath.Join(dir, m.Name+".dot"), []byte(doc), 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, "monitors.dot"), []byte(ir.DOT(prog)), 0o644)
}

func printReport(w io.Writer, f *core.Framework, rep *core.Report, outputKeys []string) {
	fmt.Fprintf(w, "system:     %v\n", rep.System)
	switch {
	case rep.NonTerminated:
		fmt.Fprintf(w, "outcome:    NON-TERMINATION after %d reboots\n", rep.Reboots)
	case rep.Completed:
		fmt.Fprintf(w, "outcome:    completed\n")
	default:
		fmt.Fprintf(w, "outcome:    failed\n")
	}
	fmt.Fprintf(w, "elapsed:    %s (active %s, %d reboots)\n",
		trace.FormatDuration(rep.Elapsed), trace.FormatDuration(rep.Active), rep.Reboots)
	fmt.Fprintf(w, "energy:     %s\n", trace.FormatJoules(float64(rep.Energy)))
	fmt.Fprintf(w, "breakdown:  app %s, runtime %s, monitor %s\n",
		trace.FormatDuration(rep.Breakdown[device.CompApp].Time),
		trace.FormatDuration(rep.Breakdown[device.CompRuntime].Time),
		trace.FormatDuration(rep.Breakdown[device.CompMonitor].Time))
	if st := rep.ArtemisStats; st != nil {
		fmt.Fprintf(w, "decisions:  restarts=%d(path)/%d(task) skips=%d(path)/%d(task) complete=%d\n",
			st.PathRestarts, st.TaskRestarts, st.PathSkips, st.TaskSkips, st.PathComplete)
		if st.WatchdogTrips > 0 {
			fmt.Fprintf(w, "            watchdog trips ×%d\n", st.WatchdogTrips)
		}
		for _, a := range []action.Action{action.RestartPath, action.SkipPath, action.SkipTask, action.CompletePath} {
			if n := st.Decisions[a]; n > 0 {
				fmt.Fprintf(w, "            %v ×%d\n", a, n)
			}
		}
	}
	if st := rep.MayflyStats; st != nil {
		fmt.Fprintf(w, "decisions:  pathRestarts=%d taskRuns=%d freshnessFailures=%d\n",
			st.PathRestarts, st.TaskRuns, st.FreshnessFailures)
	}
	if st := rep.FreshnessStats; st != nil {
		fmt.Fprintf(w, "freshness:  taskRuns=%d stale=%d re-collections=%d violations=%d\n",
			st.TaskRuns, st.StaleDetected, st.ReCollections, st.Violations)
	}
	if tel := f.Telemetry(); tel != nil {
		fmt.Fprintf(w, "telemetry:  %d events", tel.EventCount())
		if d := tel.FlightDepth(); d > 0 {
			fmt.Fprintf(w, ", %d persisted (flight depth %d)", tel.PersistedCount(), d)
		}
		fmt.Fprintf(w, ", %d commit flips\n", tel.CommitFlips())
	}
	if ost := rep.OTA; ost != nil {
		switch {
		case ost.Swaps > 0:
			fmt.Fprintf(w, "ota:        swapped to v%d after %d chunks (%d events to swap, %d missed, %.1f µJ radio)\n",
				f.OTA().ActiveVersion(), ost.ChunksSent, ost.ActivateSeq-ost.RequestSeq, ost.MissedEvents, ost.TransferEnergyUJ)
		case ost.Rollbacks > 0:
			fmt.Fprintf(w, "ota:        rolled back to v%d (%s) after %d chunks (%.1f µJ radio)\n",
				f.OTA().ActiveVersion(), ost.LastRollback, ost.ChunksSent, ost.TransferEnergyUJ)
		default:
			fmt.Fprintf(w, "ota:        update pending, %d chunks sent (%.1f µJ radio)\n",
				ost.ChunksSent, ost.TransferEnergyUJ)
		}
	}
	if ist := rep.Integrity; ist != nil {
		fmt.Fprintf(w, "integrity:  %d guards, %d checks (%d scrubs, %d boot verifies), %d corruptions -> %d restored, %d reset, %d quarantined\n",
			ist.Guards, ist.Checks, ist.Scrubs, ist.BootVerifies,
			ist.Corruptions, ist.ShadowRestores, ist.Resets, ist.Quarantines)
	}
	fmt.Fprintf(w, "fram:       ")
	for i, owner := range sortedOwners(rep.Footprints) {
		if i > 0 {
			fmt.Fprintf(w, ", ")
		}
		fmt.Fprintf(w, "%s=%dB", owner, rep.Footprints[owner])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "fram wear:  ")
	for i, owner := range sortedOwners(rep.Footprints) {
		if i > 0 {
			fmt.Fprintf(w, ", ")
		}
		fmt.Fprintf(w, "%s=%dB", owner, rep.Wear[owner])
	}
	fmt.Fprintln(w)
	st := f.Store()
	fmt.Fprintf(w, "outputs:    ")
	for i, key := range outputKeys {
		if i > 0 {
			fmt.Fprintf(w, " ")
		}
		fmt.Fprintf(w, "%s=%.2f", key, st.Get(key))
	}
	fmt.Fprintln(w)
}

func sortedOwners(m map[string]int) []string {
	owners := make([]string, 0, len(m))
	for o := range m {
		owners = append(owners, o)
	}
	for i := 1; i < len(owners); i++ {
		for j := i; j > 0 && owners[j] < owners[j-1]; j-- {
			owners[j], owners[j-1] = owners[j-1], owners[j]
		}
	}
	return owners
}
