// Package fleet is the sharded batch stepping engine: it hosts N simulated
// intermittent devices — a heterogeneous mix of every example deployment in
// internal/examplespecs — and advances the whole fleet one step at a time,
// where one device step is one complete application run (the unit every
// figure sweep is built from). It is the throughput substrate for
// fleet-scale what-if analysis: the HTTP fleet server of the roadmap is a
// thin layer over Engine.
//
// # Sharding
//
// Devices are assigned to shards in contiguous index blocks. Each shard
// owns its digest scratch and counters exclusively and reuses them across
// steps; FRAM images come from the process-wide recycle pool behind
// core.New (nvm.NewPooled) and go back to it after every device run. A step
// schedules one task per shard across internal/parallel's bounded worker
// pool.
//
// # Determinism
//
// Every device run is fully independent — its own memory image, clock, and
// seeded supply — and a recycled image is indistinguishable from a fresh
// one, so a device's outcome digest does not depend on which shard ran it,
// which worker ran the shard, or how often its image was recycled. Digests
// are folded in device-index order. The fleet digest is therefore
// byte-identical at any shard and worker count; fleet_test.go holds the
// engine to that, including under the race detector.
package fleet

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/parallel"
	"github.com/tinysystems/artemis-go/internal/telemetry"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// Config sizes an engine.
type Config struct {
	// Devices is the fleet size. Required unless Members is set.
	Devices int
	// Shards is the number of device groups stepped as units; <= 0 means
	// min(Devices, GOMAXPROCS). The shard count never changes results,
	// only scheduling granularity.
	Shards int
	// Workers bounds the goroutines stepping shards; <= 0 means one per
	// CPU. Like Shards, it never changes results.
	Workers int
	// Cases is the deployment mix; device i runs Cases[i % len(Cases)].
	// Nil means examplespecs.All(). Ignored when Members is set.
	Cases []examplespecs.Case
	// Members, when non-nil, places an explicit device list instead of the
	// Devices/Cases round-robin: device i is Members[i], keeping its given
	// name. This is the dynamic-membership hook the fleet server uses — it
	// rebuilds (reshards) an engine from its registry snapshot whenever
	// devices come or go, and the per-device digest independence means a
	// frozen member list reproduces the same digests at any Shards/Workers.
	Members []Member
	// PostRun, when non-nil, observes every completed device run while the
	// framework and its FRAM image are still alive — after Framework.Run,
	// before the outcome digest folds the image hash and the image returns
	// to the recycle pool. Within a shard it is called sequentially in
	// device-index order (the engine's deterministic drain order); distinct
	// shards call it concurrently, so the hook must only touch per-index
	// state or synchronise. State the hook mutates through the framework
	// (e.g. events injected via core.Framework.InjectEvent) lands in the
	// image before the hash is taken, so it is digest-covered. A non-nil
	// error aborts the fleet step like a device failure.
	PostRun func(index int, name string, f *core.Framework, rep *core.Report) error
}

// Member is one explicitly-placed fleet device: a display name plus the
// example deployment it runs.
type Member struct {
	Name string
	Case examplespecs.Case
}

// device is one fleet member: a case binding plus the per-case compiled
// monitor program (shared by every device of the same case).
type device struct {
	index    int
	name     string
	build    func() (core.Config, error)
	compiled *transform.Result
}

// shard owns a contiguous block of devices and all state their steps touch.
type shard struct {
	index   int
	devices []device
	// digests is the per-step scratch of device outcome digests, reused
	// across steps (one slot per device in the shard).
	digests []uint64
	// stats accumulates across steps; read back via Engine.ShardStats.
	stats telemetry.FleetShard
	// post is Config.PostRun; called sequentially in device-index order
	// within the shard.
	post func(index int, name string, f *core.Framework, rep *core.Report) error
}

// Engine hosts the fleet.
type Engine struct {
	shards  []*shard
	workers int
	devices int
	// steps and digest accumulate across Step calls; digest folds every
	// device digest of every step in (step, device-index) order.
	steps  uint64
	digest uint64
}

// New assembles a fleet engine. It deploys each distinct case once to
// validate it and to compile its monitor program, so per-step construction
// skips every parse and compile for all devices that share the case (the
// same sharing sweeps use). Cases are told apart by name, so Cases must not
// repeat one.
func New(cfg Config) (*Engine, error) {
	members := cfg.Members
	if members == nil {
		if cfg.Devices <= 0 {
			return nil, fmt.Errorf("fleet: Devices must be positive, got %d", cfg.Devices)
		}
		cases := cfg.Cases
		if cases == nil {
			cases = examplespecs.All()
		}
		if len(cases) == 0 {
			return nil, fmt.Errorf("fleet: empty case list")
		}
		seen := make(map[string]bool, len(cases))
		for _, c := range cases {
			if seen[c.Name] {
				return nil, fmt.Errorf("fleet: duplicate case name %q", c.Name)
			}
			seen[c.Name] = true
		}
		members = make([]Member, cfg.Devices)
		for i := range members {
			c := cases[i%len(cases)]
			members[i] = Member{Name: fmt.Sprintf("%s#%d", c.Name, i), Case: c}
		}
	} else {
		if len(members) == 0 {
			return nil, fmt.Errorf("fleet: empty member list")
		}
		if cfg.Devices != 0 && cfg.Devices != len(members) {
			return nil, fmt.Errorf("fleet: Devices=%d conflicts with %d Members", cfg.Devices, len(members))
		}
	}
	devices := len(members)
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > devices {
		shards = devices
	}
	// One compiled monitor program per distinct case, shared by all its
	// devices and steps: a transform.Result is immutable and safe to reuse
	// across topology-identical graphs, which fresh Config() calls produce
	// by construction.
	compiled := make(map[string]*transform.Result, 8)
	for _, m := range members {
		if _, ok := compiled[m.Case.Name]; ok {
			continue
		}
		res, err := compileCase(m.Case)
		if err != nil {
			return nil, fmt.Errorf("fleet: case %s: %w", m.Case.Name, err)
		}
		compiled[m.Case.Name] = res
	}

	e := &Engine{workers: cfg.Workers, devices: devices}
	for s := 0; s < shards; s++ {
		lo := s * devices / shards
		hi := (s + 1) * devices / shards
		sh := &shard{
			index:   s,
			devices: make([]device, 0, hi-lo),
			digests: make([]uint64, hi-lo),
			post:    cfg.PostRun,
		}
		for i := lo; i < hi; i++ {
			m := members[i]
			sh.devices = append(sh.devices, device{
				index:    i,
				name:     m.Name,
				build:    m.Case.Config,
				compiled: compiled[m.Case.Name],
			})
		}
		sh.stats = telemetry.FleetShard{Shard: s, Devices: len(sh.devices)}
		e.shards = append(e.shards, sh)
	}
	return e, nil
}

// compileCase deploys one configuration of c as a probe and returns the
// monitor program the probe runs (nil for a non-ARTEMIS case). core.New
// builds a BuildApp case's graph on the probe's own image, which goes back
// to the pool with it, so camera-style cases compile here too.
func compileCase(c examplespecs.Case) (*transform.Result, error) {
	cfg, err := c.Config()
	if err != nil {
		return nil, err
	}
	f, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	return f.Compiled(), nil
}

// Devices returns the fleet size.
func (e *Engine) Devices() int { return e.devices }

// ShardCount returns the number of shards.
func (e *Engine) ShardCount() int { return len(e.shards) }

// Steps returns the number of completed fleet steps.
func (e *Engine) Steps() uint64 { return e.steps }

// Digest returns the cumulative fleet digest: every device outcome of every
// step, folded in (step, device-index) order. Identical at any shard and
// worker count.
func (e *Engine) Digest() uint64 { return e.digest }

// StepResult summarises one fleet step.
type StepResult struct {
	// DeviceSteps is the number of device runs this step (the fleet size).
	DeviceSteps int
	// Digest is the cumulative engine digest after the step.
	Digest uint64
}

// Step advances every device by one run. Shards step concurrently; devices
// within a shard step sequentially on the shard's own images. An error
// (which the example cases never produce) aborts the step and leaves the
// engine's counters mid-step; the digest is not advanced.
func (e *Engine) Step(ctx context.Context) (StepResult, error) {
	_, err := parallel.Map(ctx, e.shards, e.workers,
		func(ctx context.Context, _ int, sh *shard) (struct{}, error) {
			return struct{}{}, sh.step(ctx)
		})
	if err != nil {
		return StepResult{}, err
	}
	for _, sh := range e.shards {
		for _, d := range sh.digests {
			e.digest = mix(e.digest, d)
		}
	}
	e.steps++
	return StepResult{DeviceSteps: e.devices, Digest: e.digest}, nil
}

// DeviceInfo describes one hosted device's placement.
type DeviceInfo struct {
	// Index is the device's fleet-wide index (digest fold order).
	Index int
	// Name is the device's display name (Member.Name, or the generated
	// case#index name in round-robin mode).
	Name string
	// Shard is the shard the device is stepped on.
	Shard int
	// LastDigest is the device's outcome digest from the most recent
	// completed step (zero before the first step).
	LastDigest uint64
}

// Snapshot reports the engine's composition and cumulative position: every
// device with its shard placement and last outcome digest, plus the step
// and digest counters. The fleet server renders registry views from it and
// tests freeze it to assert scheduling-independence.
//
// Snapshot must not run concurrently with Step: the per-device digests it
// reads are the shards' step scratch.
type Snapshot struct {
	Steps   uint64
	Digest  uint64
	Devices []DeviceInfo
}

// Snapshot captures the current composition; see the Snapshot type.
func (e *Engine) Snapshot() Snapshot {
	snap := Snapshot{
		Steps:   e.steps,
		Digest:  e.digest,
		Devices: make([]DeviceInfo, 0, e.devices),
	}
	for _, sh := range e.shards {
		for i := range sh.devices {
			d := &sh.devices[i]
			info := DeviceInfo{Index: d.index, Name: d.name, Shard: sh.index}
			if e.steps > 0 {
				info.LastDigest = sh.digests[i]
			}
			snap.Devices = append(snap.Devices, info)
		}
	}
	return snap
}

// ShardStats snapshots every shard's cumulative counters, in shard order.
func (e *Engine) ShardStats() []telemetry.FleetShard {
	out := make([]telemetry.FleetShard, len(e.shards))
	for i, sh := range e.shards {
		out[i] = sh.stats
	}
	return out
}

// WriteMetrics writes the per-shard counters as Prometheus-style text
// through internal/telemetry's fleet exporter.
func (e *Engine) WriteMetrics(w io.Writer) error {
	return telemetry.FleetMetrics(w, e.ShardStats())
}

// step runs every device of the shard once, in index order.
func (sh *shard) step(ctx context.Context) error {
	for i := range sh.devices {
		if err := ctx.Err(); err != nil {
			return err
		}
		d, err := sh.stepDevice(&sh.devices[i])
		if err != nil {
			return err
		}
		sh.digests[i] = d
	}
	return nil
}

// stepDevice executes one device run and returns the outcome digest. The
// device's FRAM image goes back to the recycle pool once the digest is
// taken.
func (sh *shard) stepDevice(d *device) (uint64, error) {
	cfg, err := d.build()
	if err != nil {
		return 0, fmt.Errorf("fleet: %s: %w", d.name, err)
	}
	if d.compiled != nil {
		cfg.Compiled, cfg.SpecSource = d.compiled, ""
	}
	f, err := core.New(cfg)
	if err != nil {
		return 0, fmt.Errorf("fleet: %s: %w", d.name, err)
	}
	defer f.Release()
	mem := f.MCU().Mem
	if mem.Recycled() {
		sh.stats.Recycled++
	}
	rep, err := f.Run()
	if err != nil {
		return 0, fmt.Errorf("fleet: %s: %w", d.name, err)
	}
	if sh.post != nil {
		// The hook sees the live framework before the hash below, so any
		// monitor state it mutates (injected events) is digest-covered.
		if err := sh.post(d.index, d.name, f, rep); err != nil {
			return 0, fmt.Errorf("fleet: %s: %w", d.name, err)
		}
	}

	// The digest covers the final FRAM image (the memory's incremental
	// hash, which includes every committed store slot and monitor state)
	// plus the run's externally visible outcome.
	digest := mem.Hash()
	digest = mix(digest, uint64(rep.Reboots))
	digest = mix(digest, uint64(rep.Elapsed))
	switch {
	case rep.NonTerminated:
		digest = mix(digest, 2)
		sh.stats.NonTerminated++
	case rep.Completed:
		digest = mix(digest, 1)
		sh.stats.Completed++
	}
	sh.stats.Steps++
	sh.stats.Reboots += uint64(rep.Reboots)
	return digest, nil
}

// mix folds v into d with a splitmix64-style finaliser; non-commutative, so
// fold order is part of the digest.
func mix(d, v uint64) uint64 {
	x := d ^ (v + 0x9e3779b97f4a7c15 + (d << 6) + (d >> 2))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}
