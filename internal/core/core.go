// Package core is the assembly facade of the framework: one call builds a
// complete simulated deployment — MSP430-class device, FRAM, power supply,
// task store, compiled monitors, and the chosen runtime (ARTEMIS, the
// Mayfly baseline, or the Ocelot-style freshness-enforcement runtime) —
// and runs the application on intermittent power.
//
// Examples and the experiment harness both build on this package; the
// underlying pieces remain individually usable for finer control.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/tinysystems/artemis-go/internal/artemis"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/integrity"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/ota"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/telemetry"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// System selects the runtime under test.
type System int

// Systems.
const (
	Artemis System = iota
	Mayfly
	// Ocelot is the automatic input-freshness-enforcement runtime
	// (internal/freshness): no monitors and no restart adaptation — stale
	// sensor inputs are detected against per-input bounds and re-collected
	// before the consumer runs.
	Ocelot
)

func (s System) String() string {
	switch s {
	case Artemis:
		return "ARTEMIS"
	case Mayfly:
		return "Mayfly"
	case Ocelot:
		return "Ocelot"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// SupplyKind selects the power-supply model.
type SupplyKind int

// Supply kinds.
const (
	// SupplyContinuous is the bench supply of Figures 14/15.
	SupplyContinuous SupplyKind = iota
	// SupplyFixedDelay is the evaluation model: a fixed usable-energy
	// budget per boot and a fixed charging delay (Figures 12/16).
	SupplyFixedDelay
	// SupplyHarvested is the physical capacitor + harvester model.
	SupplyHarvested
	// SupplyBurst is the physical capacitor fed by a bursty two-state
	// harvester (energy.BurstHarvester), deterministic given Seed.
	SupplyBurst
)

// SupplyConfig describes the power source.
type SupplyConfig struct {
	Kind SupplyKind

	// Fixed-delay parameters.
	BudgetUJ float64
	Delay    simclock.Duration

	// Harvested parameters.
	CapacitanceF float64
	VMax         float64
	VOn          float64
	VOff         float64
	HarvestW     float64

	// Burst parameters (SupplyBurst): mean on/off dwell times of the
	// two-state harvester and the RNG seed that makes the burst schedule
	// reproducible.
	MeanOn  simclock.Duration
	MeanOff simclock.Duration
	Seed    int64
}

// Config describes one deployment.
type Config struct {
	System System

	// Graph and StoreKeys define the application.
	Graph     *task.Graph
	StoreKeys []string

	// SpecSource is the ARTEMIS property specification (ignored by Mayfly).
	SpecSource string
	// Compiled, when set, supplies a pre-compiled monitor program and skips
	// the per-deployment spec parse + compile (ARTEMIS only; mutually
	// exclusive with SpecSource). The framework treats the Result as
	// immutable, so one compiled program may be shared by many deployments
	// — including concurrent ones — as long as each deployment's Graph is
	// topology-identical to the graph it was compiled against (machines and
	// bindings reference tasks and paths by name/ID, never by pointer).
	// Sweeps compile once per sweep instead of once per run.
	Compiled *transform.Result
	// Constraints is the Mayfly constraint set (ignored by ARTEMIS).
	Constraints []mayfly.Constraint
	// FreshnessBounds is the declared input-freshness bound set (Ocelot
	// only). The runtime enforces these plus any bounds inferred from the
	// task graph under FreshnessDefault (freshness.InferBounds).
	FreshnessBounds []freshness.Bound
	// FreshnessDefault, when positive, gives every graph-inferred
	// (sensor task, path-final task) pair without a declared bound this
	// maximum input age (Ocelot only). Zero infers no extra bounds.
	FreshnessDefault simclock.Duration

	Supply SupplyConfig

	// Profile defaults to MSP430FR5994.
	Profile *device.Profile
	// MemBytes defaults to 256 KiB (the MSP430FR5994's FRAM). The image is
	// drawn from the recycle pool (nvm.NewPooled); see Framework.Release.
	MemBytes int
	// Rounds defaults to 1.
	Rounds int
	// MaxReboots defaults to 1000; exhausting it reports non-termination.
	MaxReboots int
	// MaxSteps bounds runtime-loop iterations (livelock guard).
	MaxSteps int

	// OnDecision observes ARTEMIS decisions (ignored by Mayfly); experiment
	// harnesses use it to reconstruct timelines.
	OnDecision func(ev monitor.Event, d monitor.Decision)

	// RemoteMonitors deploys the ARTEMIS monitors on an external wireless
	// device (§7 "Implementation Alternatives"): the host pays per-event
	// radio costs instead of on-device evaluation costs.
	RemoteMonitors bool
	// ContinuationMonitors dispatches events through an
	// ImmortalThreads-style persistent continuation (§4.2.3), the paper's
	// own mechanism, instead of the default commit/replay dispatch.
	ContinuationMonitors bool
	// RadioCost overrides the default BLE-class exchange cost when
	// RemoteMonitors is set.
	RadioCost *monitor.RadioCost
	// RadioLink injects a radio channel model (loss, duplication) into the
	// remote deployment; nil is a perfect link. Requires RemoteMonitors.
	RadioLink monitor.Link
	// RadioPolicy overrides the remote deployment's default retry/backoff
	// schedule. Requires RemoteMonitors.
	RadioPolicy *monitor.RetryPolicy

	// BuildApp, when set, constructs the application against the
	// framework's NVM — for apps whose graphs close over persistent
	// structures (channels). It returns the graph plus the extra
	// persistents to commit at task boundaries; Config.Graph must be nil.
	BuildApp func(mem *nvm.Memory) (*task.Graph, []task.Persistent, error)

	// ClockDriftPPM and ClockOffJitterPPM configure the persistent
	// timekeeper's error model (crystal drift while on; off-period
	// estimation error, seeded by ClockSeed). Zero means a perfect clock —
	// the paper's assumption.
	ClockDriftPPM     float64
	ClockOffJitterPPM float64
	ClockSeed         int64

	// Integrity enables the self-healing NVM layer (ARTEMIS only): CRC
	// guards over the control region, store, channels, and monitor state,
	// verified at boot and re-verified by the scrubber every ScrubInterval
	// of simulated time (default 1 s; the guards' costs are charged to
	// their own component).
	Integrity bool
	// ScrubInterval overrides the scrub period; 0 means the 1 s default,
	// negative disables the scrubber (boot verification still runs).
	ScrubInterval simclock.Duration
	// WatchdogLimit arms the runtime's forward-progress watchdog (ARTEMIS
	// only): after more than this many consecutive boots die at the same
	// task, the path is failed through action arbitration instead of
	// boot-looping. 0 disables the watchdog.
	WatchdogLimit int

	// SwapCompiled, when non-nil, queues an over-the-air monitor
	// reprogramming (ARTEMIS only): the compiled target spec is encoded as
	// a versioned, checksummed bundle and delivered chunk-by-chunk over the
	// monitoring radio link once the runtime's event sequence passes
	// SwapAt, then activated atomically at a task boundary with live FSM
	// state migrated per SwapMigration. Incompatible with
	// ContinuationMonitors (the threaded deployment pins its monitor set).
	SwapCompiled *transform.Result
	// SwapVersion is the bundle's version; defaults to 2 (the factory
	// image is version 1) and must exceed the installed version.
	SwapVersion uint64
	// SwapAt is the runtime event sequence number after which the transfer
	// starts; 0 starts at the first task boundary.
	SwapAt uint64
	// SwapMigration maps machine -> old state -> new state; nil derives
	// the identity map over shared state names (ota.AutoMigration).
	SwapMigration map[string]map[string]string
	// SwapLink injects a lossy channel under the OTA transfer when
	// monitors run on-device (with RemoteMonitors the transfer shares the
	// remote deployment's link and RadioLink applies to both).
	SwapLink monitor.Link
	// SwapPolicy overrides the OTA transfer's retry/backoff schedule when
	// monitors run on-device.
	SwapPolicy *monitor.RetryPolicy
	// SwapChunk overrides the transfer chunk size (default 64 bytes).
	SwapChunk int
	// SwapCorrupt, when non-nil, may alter a chunk in flight (fault
	// injection); corruption is caught at verification and rolls back.
	SwapCorrupt func(chunk int, data []byte) []byte

	// Telemetry enables the structured event tracer (ARTEMIS and Ocelot):
	// device boots/power failures, task lifecycle, monitor transitions,
	// actions, integrity repairs, and freshness enforcement, exportable as
	// Chrome trace JSON, JSONL, and Prometheus-style metrics. Off by
	// default — the disabled path is allocation-free and perturbs neither
	// write counts nor energy.
	Telemetry bool
	// FlightDepth, when positive, attaches the crash-resilient NVM flight
	// recorder with that many ring slots and implies Telemetry. Its NVM
	// traffic and CPU cycles are charged to device.CompTelemetry.
	FlightDepth int
}

// Report summarises one application run.
type Report struct {
	System System
	device.RunResult
	// NonTerminated is set when the reboot budget or step budget was
	// exhausted — the Figure-12 Mayfly outcome.
	NonTerminated bool
	// Breakdown attributes active time and energy to components.
	Breakdown map[device.Component]device.Usage
	// Footprints reports FRAM bytes per owner (Table 2).
	Footprints map[string]int
	// Wear reports FRAM bytes written per owner over the run (endurance).
	Wear map[string]int64
	// ArtemisStats / MayflyStats / FreshnessStats expose the runtime's
	// decision counters.
	ArtemisStats   *artemis.Stats
	MayflyStats    *mayfly.Stats
	FreshnessStats *freshness.Stats
	// Integrity reports the self-healing layer's activity (nil when the
	// layer is disabled).
	Integrity *integrity.Stats
	// OTA reports reprogramming activity (nil when no swap was configured).
	OTA *ota.Stats
}

// Framework is an assembled deployment ready to run.
type Framework struct {
	cfg   Config
	mcu   *device.MCU
	dev   *device.Device
	store *task.Store

	art    *artemis.Runtime
	may    *mayfly.Runtime
	fresh  *freshness.Runtime
	mons   *monitor.Set
	remote *monitor.Remote
	res    *transform.Result
	integ  *integrity.Manager
	tel    *telemetry.Tracer
	otaMgr *ota.Manager

	// released makes Release one-shot. The Memory has its own double-put
	// guard, but that flag is cleared when the pool hands the image to the
	// next deployment — a second Release through a stale Framework handle
	// would then push an in-use image back into the pool. This flag pins
	// idempotence to the handle the caller actually holds.
	released bool
	// injected counts events delivered through InjectEvent, so external
	// sequence numbers keep advancing past the runtime's persistent counter.
	injected uint64
}

// New assembles a deployment.
func New(cfg Config) (*Framework, error) {
	if cfg.Graph == nil && cfg.BuildApp == nil {
		return nil, errors.New("core: Config.Graph or Config.BuildApp is required")
	}
	if cfg.Graph != nil && cfg.BuildApp != nil {
		return nil, errors.New("core: Config.Graph and Config.BuildApp are mutually exclusive")
	}
	if len(cfg.StoreKeys) == 0 {
		return nil, errors.New("core: Config.StoreKeys is required")
	}
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = 256 * 1024
	}
	if cfg.MaxReboots <= 0 {
		cfg.MaxReboots = 1000
	}
	prof := device.MSP430FR5994()
	if cfg.Profile != nil {
		prof = *cfg.Profile
	}
	supply, err := buildSupply(cfg.Supply)
	if err != nil {
		return nil, err
	}
	mem := nvm.NewPooled(cfg.MemBytes)
	var extras []task.Persistent
	if cfg.BuildApp != nil {
		g, ex, err := cfg.BuildApp(mem)
		if err != nil {
			return nil, err
		}
		cfg.Graph, extras = g, ex
	}
	clock := &simclock.Clock{DriftPPM: cfg.ClockDriftPPM, OffJitterPPM: cfg.ClockOffJitterPPM}
	if cfg.ClockOffJitterPPM != 0 {
		clock.Rand = rand.New(rand.NewSource(cfg.ClockSeed))
	}
	mcu, err := device.NewMCU(clock, mem, supply, prof)
	if err != nil {
		return nil, err
	}
	store, err := task.NewStore(mem, "app", cfg.StoreKeys)
	if err != nil {
		return nil, err
	}
	f := &Framework{
		cfg:   cfg,
		mcu:   mcu,
		dev:   &device.Device{MCU: mcu, MaxReboots: cfg.MaxReboots},
		store: store,
	}
	if cfg.WatchdogLimit < 0 {
		return nil, fmt.Errorf("core: WatchdogLimit must be >= 0, got %d", cfg.WatchdogLimit)
	}
	if (cfg.Integrity || cfg.WatchdogLimit > 0) && cfg.System != Artemis {
		return nil, errors.New("core: Integrity and WatchdogLimit require the ARTEMIS runtime")
	}
	if cfg.Compiled != nil && cfg.System != Artemis {
		return nil, errors.New("core: Config.Compiled requires the ARTEMIS runtime")
	}
	if cfg.FlightDepth < 0 {
		return nil, fmt.Errorf("core: FlightDepth must be >= 0, got %d", cfg.FlightDepth)
	}
	if cfg.FlightDepth > 0 && cfg.System != Artemis {
		return nil, errors.New("core: FlightDepth requires the ARTEMIS runtime")
	}
	if cfg.Telemetry && cfg.System == Mayfly {
		return nil, errors.New("core: Telemetry requires the ARTEMIS or Ocelot runtime")
	}
	if (len(cfg.FreshnessBounds) > 0 || cfg.FreshnessDefault != 0) && cfg.System != Ocelot {
		return nil, errors.New("core: FreshnessBounds and FreshnessDefault require the Ocelot runtime")
	}
	var tel *telemetry.Tracer
	if cfg.Telemetry || cfg.FlightDepth > 0 {
		tel = telemetry.New()
		if cfg.FlightDepth > 0 {
			if err := tel.AttachFlight(mem, cfg.FlightDepth); err != nil {
				return nil, err
			}
			// Flight-recorder persistence runs on-device: its FRAM traffic
			// and slot-formatting cycles are charged under CompTelemetry.
			// The component switch happens before the staged writes so the
			// flush that Exec triggers attributes them correctly, and a
			// brown-out inside the charge unwinds like any other failure.
			tel.SetCharge(func(events int, persist func()) {
				prev := mcu.SetComponent(device.CompTelemetry)
				persist()
				mcu.Exec(int64(events) * telemetry.RecordCycles)
				mcu.SetComponent(prev)
			})
		}
		f.tel = tel
		f.dev.Tracer = tel
	}
	var integ *integrity.Manager
	if cfg.Integrity {
		scrub := cfg.ScrubInterval
		switch {
		case scrub == 0:
			scrub = simclock.Second
		case scrub < 0:
			scrub = 0 // boot verification only
		}
		integ = integrity.NewManager(mem, mcu, scrub)
		integ.SetTracer(tel)
		f.integ = integ
	}
	switch cfg.System {
	case Artemis:
		res := cfg.Compiled
		if res == nil {
			s, err := spec.Parse(cfg.SpecSource)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			res, err = transform.Compile(s, transform.Options{Graph: cfg.Graph, DataVars: cfg.StoreKeys})
			if err != nil {
				return nil, err
			}
		} else if cfg.SpecSource != "" {
			return nil, errors.New("core: Config.Compiled and Config.SpecSource are mutually exclusive")
		}
		mons, err := monitor.NewSet(mem, res)
		if err != nil {
			return nil, err
		}
		mons.SetTracer(tel)
		var deployed monitor.Interface = mons
		switch {
		case cfg.RemoteMonitors && cfg.ContinuationMonitors:
			return nil, errors.New("core: RemoteMonitors and ContinuationMonitors are mutually exclusive")
		case cfg.RemoteMonitors:
			cost := monitor.DefaultRadioCost()
			if cfg.RadioCost != nil {
				cost = *cfg.RadioCost
			}
			rem := monitor.NewRemote(mons, mcu, cost)
			rem.SetLink(cfg.RadioLink)
			if cfg.RadioPolicy != nil {
				rem.SetRetryPolicy(*cfg.RadioPolicy)
			}
			f.remote = rem
			deployed = rem
		case cfg.ContinuationMonitors:
			ts, err := monitor.NewThreadedSet(mem, mons)
			if err != nil {
				return nil, err
			}
			deployed = ts
		}
		var otaMgr *ota.Manager
		var reprog artemis.Reprogrammer
		if cfg.SwapCompiled != nil {
			otaMgr, err = f.buildOTA(cfg, mem, mcu, tel, integ, deployed, mons, res)
			if err != nil {
				return nil, err
			}
			// The runtime delivers through the manager so the deployment
			// swap is a host-side pointer change behind a stable interface.
			deployed = otaMgr
			reprog = otaMgr
			f.otaMgr = otaMgr
		} else if cfg.SwapVersion != 0 || cfg.SwapAt != 0 || cfg.SwapMigration != nil ||
			cfg.SwapLink != nil || cfg.SwapPolicy != nil || cfg.SwapChunk != 0 || cfg.SwapCorrupt != nil {
			return nil, errors.New("core: Swap* options require Config.SwapCompiled")
		}
		rt, err := artemis.New(artemis.Config{
			MCU: mcu, Graph: cfg.Graph, Store: store, Monitors: deployed,
			Rounds: cfg.Rounds, MaxSteps: cfg.MaxSteps, OnDecision: cfg.OnDecision,
			Extras: extras, Integrity: integ, WatchdogLimit: cfg.WatchdogLimit,
			Telemetry: tel, OTA: reprog,
		})
		if err != nil {
			return nil, err
		}
		f.art, f.mons, f.res = rt, mons, res
		if integ != nil {
			// The runtime guarded its control region during construction
			// (after all commit-group joins); wrap the remaining persistent
			// surfaces. Registration order is deterministic.
			integ.Protect("app/store", store.Backing(), integrity.ClassAppData, nil)
			for i, e := range extras {
				if b, ok := e.(interface{ Backing() *nvm.Committed }); ok {
					integ.Protect(fmt.Sprintf("app/extra%d", i), b.Backing(), integrity.ClassAppData, nil)
				}
			}
			for _, m := range mons.Monitors() {
				integ.Protect("monitor/"+m.Machine().Name, m.Backing(), integrity.ClassMonitor, m.Reset)
			}
		}
	case Mayfly:
		rt, err := mayfly.New(mayfly.Config{
			MCU: mcu, Graph: cfg.Graph, Store: store, Constraints: cfg.Constraints,
			Rounds: cfg.Rounds, MaxSteps: cfg.MaxSteps,
		})
		if err != nil {
			return nil, err
		}
		f.may = rt
	case Ocelot:
		bounds := freshness.InferBounds(cfg.Graph, cfg.FreshnessBounds, cfg.FreshnessDefault)
		rt, err := freshness.New(freshness.Config{
			MCU: mcu, Graph: cfg.Graph, Store: store, Bounds: bounds,
			Rounds: cfg.Rounds, MaxSteps: cfg.MaxSteps, Telemetry: tel,
		})
		if err != nil {
			return nil, err
		}
		f.fresh = rt
	default:
		return nil, fmt.Errorf("core: unknown system %v", cfg.System)
	}
	return f, nil
}

// buildOTA encodes the swap bundle, picks the transfer's exchanger (the
// remote deployment's own when monitors are remote, a dedicated one over
// SwapLink otherwise), and assembles the reprogramming manager with its
// integrity guards.
func (f *Framework) buildOTA(cfg Config, mem *nvm.Memory, mcu *device.MCU, tel *telemetry.Tracer,
	integ *integrity.Manager, deployed monitor.Interface, mons *monitor.Set, res *transform.Result) (*ota.Manager, error) {
	if cfg.ContinuationMonitors {
		return nil, errors.New("core: SwapCompiled is incompatible with ContinuationMonitors")
	}
	version := cfg.SwapVersion
	if version == 0 {
		version = 2
	}
	mig := cfg.SwapMigration
	if mig == nil {
		mig = ota.AutoMigration(res.Program, cfg.SwapCompiled.Program)
	}
	encoded, err := ota.Encode(&ota.Bundle{Version: version, Result: cfg.SwapCompiled, Migration: mig})
	if err != nil {
		return nil, err
	}
	var ex *monitor.Exchanger
	if f.remote != nil {
		if cfg.SwapLink != nil || cfg.SwapPolicy != nil {
			return nil, errors.New("core: with RemoteMonitors the OTA transfer shares RadioLink/RadioPolicy; SwapLink/SwapPolicy apply to on-device monitors")
		}
		ex = f.remote.Exchanger()
	} else {
		cost := monitor.DefaultRadioCost()
		if cfg.RadioCost != nil {
			cost = *cfg.RadioCost
		}
		ex = monitor.NewExchanger(mcu, cost)
		ex.SetLink(cfg.SwapLink)
		if cfg.SwapPolicy != nil {
			ex.SetRetryPolicy(*cfg.SwapPolicy)
		}
	}
	var mgr *ota.Manager
	mgr, err = ota.New(ota.Config{
		Mem: mem, MCU: mcu, Exchanger: ex, Telemetry: tel,
		Deployment: deployed, ActiveSet: mons,
		Capacity: len(encoded), Chunk: cfg.SwapChunk,
		Corrupt: cfg.SwapCorrupt,
		OnInstall: func(r *transform.Result, set *monitor.Set) {
			set.SetTracer(tel)
			f.res = r
			if integ != nil {
				for _, m := range set.Monitors() {
					integ.Protect(fmt.Sprintf("monitor/v%d/%s", mgr.InstalledVersion(), m.Machine().Name),
						m.Backing(), integrity.ClassMonitor, m.Reset)
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if integ != nil {
		integ.Protect("ota/meta", mgr.Meta(), integrity.ClassControl, nil)
		integ.Protect("ota/staging", mgr.Staging(), integrity.ClassControl, nil)
	}
	if err := mgr.Request(encoded, cfg.SwapAt); err != nil {
		return nil, err
	}
	return mgr, nil
}

func buildSupply(sc SupplyConfig) (energy.Supply, error) {
	switch sc.Kind {
	case SupplyContinuous:
		return &energy.Continuous{}, nil
	case SupplyFixedDelay:
		return energy.NewFixedDelaySupply(energy.Microjoules(sc.BudgetUJ), sc.Delay)
	case SupplyHarvested:
		cap, err := energy.NewCapacitor(sc.CapacitanceF, sc.VMax, sc.VOn, sc.VOff)
		if err != nil {
			return nil, err
		}
		return &energy.HarvestedSupply{Cap: cap, Harv: energy.ConstantHarvester(energy.Watts(sc.HarvestW))}, nil
	case SupplyBurst:
		cap, err := energy.NewCapacitor(sc.CapacitanceF, sc.VMax, sc.VOn, sc.VOff)
		if err != nil {
			return nil, err
		}
		harv, err := energy.NewBurstHarvester(energy.Watts(sc.HarvestW), sc.MeanOn, sc.MeanOff,
			rand.New(rand.NewSource(sc.Seed)))
		if err != nil {
			return nil, err
		}
		return &energy.HarvestedSupply{Cap: cap, Harv: harv}, nil
	default:
		return nil, fmt.Errorf("core: unknown supply kind %d", int(sc.Kind))
	}
}

// Release returns the framework's NVM image to the allocation pool. Call it
// when the framework — and everything read from it (store values, reports,
// monitor inspection) — is done; the memory may be handed to the next
// deployment immediately. Sweeps and benchmarks that build thousands of
// frameworks use it to stop re-allocating (and re-zeroing) 256 KiB images.
// Release is idempotent: calling it again on the same Framework is a no-op,
// even after the pool has already handed the image to a new deployment.
func (f *Framework) Release() {
	if f.released {
		return
	}
	f.released = true
	f.mcu.Mem.Release()
}

// Store returns the application's persistent store, for output inspection.
func (f *Framework) Store() *task.Store { return f.store }

// MCU returns the device model.
func (f *Framework) MCU() *device.MCU { return f.mcu }

// Monitors returns the ACTIVE ARTEMIS monitor set (nil for Mayfly): after
// an OTA swap this is the new deployment's set, so inspectors and chaos
// oracles always read the monitors the runtime is actually delivering to.
func (f *Framework) Monitors() *monitor.Set {
	if f.otaMgr != nil {
		return f.otaMgr.ActiveSet()
	}
	return f.mons
}

// InjectEvent delivers one externally-sourced event to the ACTIVE monitor
// set (ARTEMIS only): the fleet-scale ingestion hook. A monitoring server
// hosts monitor replicas for devices in the field; events its devices report
// over the network are evaluated host-side through this method, so no
// simulated device energy is charged — the device already paid its radio
// cost when it transmitted (§7 "Implementation Alternatives" scaled out).
//
// The event is stamped with the device's persistent clock, its current path
// and remaining supply energy, and a sequence number past everything the
// runtime has delivered, so injection composes with the replay-idempotence
// machinery instead of aliasing committed verdicts. The returned failures
// are a copy (safe to retain); the decision is the arbitrated corrective
// action the runtime would execute for them.
func (f *Framework) InjectEvent(kind ir.EventKind, taskName string, data float64) ([]ir.Failure, monitor.Decision, error) {
	if f.art == nil {
		return nil, monitor.Decision{}, errors.New("core: InjectEvent requires the ARTEMIS runtime")
	}
	snap := f.art.Snapshot()
	path := snap.PathID
	if path < 0 {
		path = 0
	}
	f.injected++
	ev := monitor.Event{
		Seq: snap.EventSeq + f.injected,
		Event: ir.Event{
			Kind:   kind,
			Task:   taskName,
			Time:   f.mcu.Now(),
			Path:   path,
			Data:   data,
			Energy: float64(f.mcu.EnergyLevel()) * 1e6,
		},
	}
	fs, err := f.Monitors().Deliver(ev)
	if err != nil {
		return nil, monitor.Decision{}, err
	}
	out := make([]ir.Failure, len(fs))
	copy(out, fs) // Deliver's slice aliases the set's scratch
	return out, monitor.Decide(out, path), nil
}

// OTA returns the reprogramming manager, or nil when no swap is configured.
func (f *Framework) OTA() *ota.Manager { return f.otaMgr }

// Artemis returns the ARTEMIS runtime (nil for Mayfly); fault-injection
// harnesses read its control snapshot and decision stats.
func (f *Framework) Artemis() *artemis.Runtime { return f.art }

// Ocelot returns the freshness-enforcement runtime, or nil for the other
// systems.
func (f *Framework) Ocelot() *freshness.Runtime { return f.fresh }

// Remote returns the remote monitor deployment, or nil when monitors run
// on-device.
func (f *Framework) Remote() *monitor.Remote { return f.remote }

// Integrity returns the self-healing layer's manager, or nil when disabled.
func (f *Framework) Integrity() *integrity.Manager { return f.integ }

// Telemetry returns the structured event tracer, or nil when disabled.
func (f *Framework) Telemetry() *telemetry.Tracer { return f.tel }

// CompiledIR returns the generated monitor program (nil for Mayfly); tools
// print it for inspection.
func (f *Framework) CompiledIR() *ir.Program {
	if f.res == nil {
		return nil
	}
	return f.res.Program
}

// Compiled returns the monitor program the deployment runs, with its
// bindings (nil for Mayfly and Ocelot). It is immutable, so it can be
// handed to the Config.Compiled of any deployment with a
// topology-identical graph; the fleet engine compiles each case once
// this way.
func (f *Framework) Compiled() *transform.Result { return f.res }

// OnReboot registers a reboot observer on the underlying device.
func (f *Framework) OnReboot(fn func(n int, off simclock.Duration)) {
	f.dev.OnReboot = fn
}

// Run executes the application to completion (or to a detected
// non-termination, which is reported in the Report rather than as an error
// — it is a measured outcome of the experiments).
func (f *Framework) Run() (*Report, error) {
	var boot func() error
	switch {
	case f.art != nil:
		boot = f.art.Boot
	case f.fresh != nil:
		boot = f.fresh.Boot
	default:
		boot = f.may.Boot
	}
	res, err := f.dev.Run(boot)
	rep := &Report{
		System:    f.cfg.System,
		RunResult: res,
		Breakdown: map[device.Component]device.Usage{
			device.CompApp:       f.mcu.UsageOf(device.CompApp),
			device.CompRuntime:   f.mcu.UsageOf(device.CompRuntime),
			device.CompMonitor:   f.mcu.UsageOf(device.CompMonitor),
			device.CompIntegrity: f.mcu.UsageOf(device.CompIntegrity),
			device.CompTelemetry: f.mcu.UsageOf(device.CompTelemetry),
		},
		Footprints: map[string]int{},
		Wear:       map[string]int64{},
	}
	f.mcu.Mem.OwnerTotals(rep.Footprints, rep.Wear)
	if f.art != nil {
		st := f.art.Stats()
		rep.ArtemisStats = &st
	}
	if f.may != nil {
		st := f.may.Stats()
		rep.MayflyStats = &st
	}
	if f.fresh != nil {
		st := f.fresh.Stats()
		rep.FreshnessStats = &st
	}
	if f.integ != nil {
		st := f.integ.Stats()
		rep.Integrity = &st
	}
	if f.otaMgr != nil {
		st := f.otaMgr.Stats()
		rep.OTA = &st
	}
	if err != nil {
		if errors.Is(err, device.ErrNonTermination) ||
			errors.Is(err, artemis.ErrStuck) || errors.Is(err, mayfly.ErrStuck) ||
			errors.Is(err, freshness.ErrStuck) {
			rep.NonTerminated = true
			return rep, nil
		}
		return rep, err
	}
	return rep, nil
}
