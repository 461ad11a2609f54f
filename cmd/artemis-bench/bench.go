package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/fleetserver"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// workers is the goroutine count of every parallel workload: the explorer's
// workers and the fleet engine's shard workers. The reference host has two
// CPUs.
const workers = 2

// bench is one workload, set up and warmed up.
type bench interface {
	// timed runs ops until lim says stop, recording each op's latency and
	// work in p. rec receives spans; it is nil in untraced phases.
	timed(lim *limit, p *phase, rec *recorder) error
	// finish stops the workload and checks its outputs. The per-layer
	// values it returns come from the phases that ran with a recorder.
	finish() (outcome, error)
}

// outcome is what a workload reports after its timed phases.
type outcome struct {
	// failures lists every output check that did not hold.
	failures []string
	// digests fingerprint inputs and simulated outputs; for one seed they
	// are identical on every run.
	digests map[string]string
	// layers holds the workload's own per-layer metrics.
	layers map[string]float64
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name  string
	setup func(seed int64) (bench, error)
	// compile compiles the specifications the workload's set-up compiles;
	// the traced run times it as spec.compile_ms.
	compile func() error
}

var workloads = []workload{
	{"paper", setupPaper, compileHealthSpec},
	{"chaos", setupChaos, compileHealthSpec},
	{"fleet", setupFleet, compileExampleSpecs},
	{"ingest", setupIngest, compileExampleSpecs},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Host speed. The reference host is a two-vCPU virtual machine on a machine
// shared with other work. There a fixed ALU loop keeps a steady speed, but
// memory- and branch-heavy code like this simulator slows by up to 2x for
// tens of seconds at a time. So closed-loop phases time a fixed calibration
// kernel every calEvery, between ops and right after a forced GC so that the
// workload's own collector cannot slow it. Their host-time metrics are then
// scaled by the kernel's median time over calRef: what the run would have
// measured at the reference speed. The README has the experiment behind
// this; it halves the run-to-run spread.
const (
	calEvery   = time.Second
	calSamples = 3
	calRef     = 1500 * time.Microsecond
)

// calInput is the kernel's fixed input; calBuf is its scratch.
var calInput, calBuf = func() ([]int, []int) {
	r := rand.New(rand.NewSource(1))
	xs := make([]int, 20000)
	for i := range xs {
		xs[i] = r.Int()
	}
	return xs, make([]int, len(xs))
}()

// hostSpeed samples the calibration kernel during one phase.
type hostSpeed struct {
	next    time.Time
	samples []float64 // kernel ns
	// wall and cpu are the time calibration took, which the phase excludes.
	wall, cpu time.Duration
}

// check samples the kernel when calEvery has passed since the last sample.
func (h *hostSpeed) check() {
	start := time.Now()
	if start.Before(h.next) {
		return
	}
	c0 := cpuTime()
	runtime.GC()
	for i := 0; i < calSamples; i++ {
		t := time.Now()
		copy(calBuf, calInput)
		sort.Ints(calBuf)
		h.samples = append(h.samples, float64(time.Since(t)))
	}
	h.wall += time.Since(start)
	h.cpu += cpuTime() - c0
	h.next = time.Now().Add(calEvery)
}

// slowdown is the kernel's median time over calRef; 1 when nothing was
// sampled (open loops, and phases shorter than one op).
func (h *hostSpeed) slowdown() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	return median(h.samples) / float64(calRef)
}

// limit decides when a timed phase ends.
type limit struct {
	dur time.Duration
	// minOps keeps a phase going past dur until this many ops have run (the
	// samples a latency percentile needs), but never past 3*dur.
	minOps int
	// ops, when positive, ends the phase after exactly this many ops
	// regardless of time: the smoke tests' fixed op count.
	ops   int
	start time.Time
	// speed, when set, is sampled between the ops of a closed loop.
	speed *hostSpeed
}

func (l *limit) done(n int) bool {
	if l.speed != nil {
		l.speed.check()
	}
	if l.ops > 0 {
		return n >= l.ops
	}
	el := time.Since(l.start)
	return el >= l.dur && (n >= l.minOps || el >= 3*l.dur)
}

// phase is what one timed phase measured.
type phase struct {
	lat       []float64 // per-op latency, ms; +Inf for a failed op
	items     int64
	attempted int64
	failed    int64
	// wall and cpu exclude calibration; slowdown is the host-speed factor
	// (see hostSpeed) and kernels the number of kernel samples behind it.
	wall, cpu time.Duration
	slowdown  float64
	kernels   int
	mallocs   uint64
	allocB    uint64
	gcs       uint32
	heapInuse uint64
}

// measure runs one timed phase of b and takes process-wide CPU, allocation
// and GC deltas around it.
func measure(b bench, lim limit, rec *recorder) (phase, error) {
	var p phase
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	lim.start = time.Now()
	lim.speed = &hostSpeed{next: lim.start}
	err := b.timed(&lim, &p, rec)
	p.wall = time.Since(lim.start) - lim.speed.wall
	p.cpu = cpuTime() - c0 - lim.speed.cpu
	p.slowdown, p.kernels = lim.speed.slowdown(), len(lim.speed.samples)
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocB = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = m1.NumGC - m0.NumGC - uint32(p.kernels/calSamples)
	p.heapInuse = m1.HeapInuse
	return p, err
}

// cpuTime is the user plus system CPU time of this process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one kB field of /proc/self/status (VmHWM, VmRSS).
func procStatusKB(field string) uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// compileHealthSpec compiles the Figure-5 specification from source.
func compileHealthSpec() error {
	cfg, err := examplespecs.HealthConfig()
	if err != nil {
		return err
	}
	return compileSpec(cfg)
}

// compileExampleSpecs compiles every example specification the fleet engine
// compiles when it builds an engine: the ARTEMIS cases with a source spec
// and a static graph.
func compileExampleSpecs() error {
	for _, c := range examplespecs.All() {
		cfg, err := c.Config()
		if err != nil {
			return err
		}
		if cfg.System != core.Artemis || cfg.SpecSource == "" || cfg.Graph == nil {
			continue
		}
		if err := compileSpec(cfg); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	return nil
}

func compileSpec(cfg core.Config) error {
	s, err := spec.Parse(cfg.SpecSource)
	if err != nil {
		return err
	}
	_, err = transform.Compile(s, transform.Options{Graph: cfg.Graph, DataVars: cfg.StoreKeys})
	return err
}

// injectableSpecs maps each example spec that accepts ingested events (an
// ARTEMIS deployment with a static task graph) to its sorted task names.
func injectableSpecs() (map[string][]string, error) {
	out := map[string][]string{}
	for _, c := range examplespecs.All() {
		cfg, err := c.Config()
		if err != nil {
			return nil, err
		}
		if cfg.System != core.Artemis || cfg.Graph == nil {
			continue
		}
		tasks := cfg.Graph.TaskNames()
		sort.Strings(tasks)
		out[c.Name] = tasks
	}
	return out, nil
}

// recentImages remembers the last few FRAM images deployments ran on, to
// tell an image the pool recycled from a fresh one. It keeps only a few
// alive: remembering every image would pin the ones the pool dropped.
type recentImages struct {
	ring [16]*nvm.Memory
	next int
}

// reused reports whether m is one of the remembered images, and remembers
// it.
func (r *recentImages) reused(m *nvm.Memory) bool {
	for _, x := range r.ring {
		if x == m {
			return true
		}
	}
	r.ring[r.next] = m
	r.next = (r.next + 1) % len(r.ring)
	return false
}

// target is a device events may be aimed at.
type target struct {
	id    string
	tasks []string
}

// streamBatches is how many leading batches the stream digest covers, so it
// does not depend on how many batches a run got through.
const streamBatches = 16

// eventGen makes the seeded event batches of the fleet and ingest
// workloads.
type eventGen struct {
	rng     *rand.Rand
	targets []target
	batches int
	digest  uint64
}

func newEventGen(seed int64, targets []target) *eventGen {
	return &eventGen{rng: rand.New(rand.NewSource(seed)), targets: targets}
}

// batch returns the next n events, each for a seeded random target.
func (g *eventGen) batch(n int) []fleetserver.Event {
	out := make([]fleetserver.Event, n)
	h := fnv.New64a()
	for i := range out {
		t := g.targets[g.rng.Intn(len(g.targets))]
		kind := "start"
		if g.rng.Intn(2) == 1 {
			kind = "end"
		}
		out[i] = fleetserver.Event{Device: t.id, Kind: kind, Task: t.tasks[g.rng.Intn(len(t.tasks))],
			Data: float64(g.rng.Intn(100)) / 10}
		if g.batches < streamBatches {
			fmt.Fprintf(h, "%s %s %s %g;", out[i].Device, out[i].Kind, out[i].Task, out[i].Data)
		}
	}
	if g.batches < streamBatches {
		g.digest = mix(g.digest, h.Sum64())
	}
	g.batches++
	return out
}

// mix folds v into d (splitmix64 finaliser; order-sensitive).
func mix(d, v uint64) uint64 {
	x := d ^ (v + 0x9e3779b97f4a7c15 + (d << 6) + (d >> 2))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hex(v uint64) string { return fmt.Sprintf("%016x", v) }

// parseProm sums a Prometheus text exposition by series name, across
// labels.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// serverLayers derives the fleet server's per-layer metrics from two
// /metrics snapshots taken secs apart.
func serverLayers(m0, m1 map[string]float64, secs float64) map[string]float64 {
	d := func(name string) float64 { return m1[name] - m0[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	steps := d("artemis_fleetserver_steps_total")
	devSteps := d("artemis_fleet_device_steps_total")
	return map[string]float64{
		"fleetserver.step_once_ms": 1000 * ratio(d("artemis_fleetserver_step_latency_seconds_sum"),
			d("artemis_fleetserver_step_latency_seconds_count")),
		"fleetserver.steps_per_s":               ratio(steps, secs),
		"fleetserver.events_delivered_per_step": ratio(d("artemis_fleetserver_ingest_delivered_total"), steps),
		"fleet.reboots_per_device_step":         ratio(d("artemis_fleet_reboots_total"), devSteps),
		"nvm.pool_recycle_ratio":                ratio(d("artemis_fleet_pool_recycled_total"), devSteps),
	}
}

// finite reports whether v is a number JSON can carry.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
