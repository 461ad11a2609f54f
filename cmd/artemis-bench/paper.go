package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// The paper workload is the Figure-12 grid with the evaluation harness's
// settings (internal/experiments runHealth).
const (
	paperWarmupPasses = 50 // 1 000 runs
	paperBodyTemp     = 36.6
	paperBudgetUJ     = 800
	paperMaxReboots   = 100
	// paperMITD is the health spec's maximum inter-task delay: Mayfly
	// completes below it and never at or above it (Figure 12).
	paperMITD = 5 * simclock.Minute
	// paperOrderPasses is how many leading grid passes the order digest
	// covers.
	paperOrderPasses = 16
)

type paperPoint struct {
	system core.System
	delay  simclock.Duration
}

// paperOutcome is what one run of a grid point leaves behind; every
// repetition of the point must reproduce it. outputs fingerprints the
// application's store. hash, the whole FRAM image, is compared for ARTEMIS
// only: Mayfly allocates its per-task slots in map order
// (task.Graph.TaskNames), so its image layout differs between runs.
type paperOutcome struct {
	completed, nonTerminated bool
	reboots                  int
	elapsed                  simclock.Duration
	outputs, hash            uint64
	writes, bytesWritten     int64
	events, recoveries       int
}

type paperBench struct {
	compiled *transform.Result
	keys     []string
	grid     []paperPoint
	rng      *rand.Rand
	passes   int
	orderSum uint64
	first    []*paperOutcome
	failures []string

	// Counted only while traced.
	images        recentImages
	runs, reused  int64
	artemisRun    time.Duration
	artemisEvents int64
}

func setupPaper(seed int64) (bench, error) {
	res, err := health.CompiledShared()
	if err != nil {
		return nil, err
	}
	b := &paperBench{compiled: res, keys: health.Keys(), rng: rand.New(rand.NewSource(seed))}
	for _, sys := range []core.System{core.Artemis, core.Mayfly} {
		for m := 1; m <= 10; m++ {
			b.grid = append(b.grid, paperPoint{sys, simclock.Duration(m) * simclock.Minute})
		}
	}
	b.first = make([]*paperOutcome, len(b.grid))
	var p phase
	if err := b.timed(&limit{ops: paperWarmupPasses}, &p, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// nextPass returns the grid in a seeded order, reshuffled every pass.
func (b *paperBench) nextPass() []int {
	order := b.rng.Perm(len(b.grid))
	if b.passes < paperOrderPasses {
		for _, i := range order {
			b.orderSum = mix(b.orderSum, uint64(i))
		}
	}
	b.passes++
	return order
}

// timed runs whole grid passes. A pass is the op: the grid's run times
// differ by 10x, so percentiles over single runs would sit on the border
// between two grid points and jump with their relative speed. A run is the
// item.
func (b *paperBench) timed(lim *limit, p *phase, rec *recorder) error {
	var kids []child
	for n := 0; !lim.done(n); n++ {
		kids = kids[:0]
		start := time.Now()
		for _, i := range b.nextPass() {
			out, runKids, err := b.run(b.grid[i], rec != nil)
			if err != nil {
				return err
			}
			p.items++
			p.attempted++
			if !b.check(i, out) {
				p.failed++
			}
			if rec != nil {
				parent := len(kids)
				kids = append(kids, child{"run", -1, runKids[0].start, runKids[3].end})
				for _, k := range runKids {
					k.parent = parent
					kids = append(kids, k)
				}
				if b.grid[i].system == core.Artemis {
					b.artemisRun += runKids[2].end.Sub(runKids[2].start)
					b.artemisEvents += int64(out.events)
				}
			}
		}
		end := time.Now()
		p.lat = append(p.lat, ms(end.Sub(start)))
		rec.op("pass", start, end, 1, kids)
	}
	return nil
}

// run executes one grid point: health.NewWithTemp, core.New, Run, Release.
// When traced it returns one span per call.
func (b *paperBench) run(pt paperPoint, traced bool) (paperOutcome, []child, error) {
	var ts [5]time.Time
	if traced {
		ts[0] = time.Now()
	}
	app := health.NewWithTemp(paperBodyTemp)
	if traced {
		ts[1] = time.Now()
	}
	cfg := core.Config{
		System:     pt.system,
		Graph:      app.Graph,
		StoreKeys:  health.Keys(),
		Supply:     core.SupplyConfig{Kind: core.SupplyFixedDelay, BudgetUJ: paperBudgetUJ, Delay: pt.delay},
		MaxReboots: paperMaxReboots,
	}
	if pt.system == core.Mayfly {
		cfg.Constraints = mayfly.HealthConstraints()
	} else {
		cfg.Compiled = b.compiled
	}
	f, err := core.New(cfg)
	if err != nil {
		return paperOutcome{}, nil, err
	}
	if traced {
		ts[2] = time.Now()
	}
	rep, err := f.Run()
	if err != nil {
		return paperOutcome{}, nil, err
	}
	if traced {
		ts[3] = time.Now()
	}
	mem := f.MCU().Mem
	st := mem.Stats()
	out := paperOutcome{
		completed: rep.Completed, nonTerminated: rep.NonTerminated,
		reboots: rep.Reboots, elapsed: rep.Elapsed,
		writes: st.Writes, bytesWritten: st.BytesWritten,
	}
	for _, k := range b.keys {
		out.outputs = mix(out.outputs, math.Float64bits(f.Store().Get(k)))
	}
	if s := rep.ArtemisStats; s != nil {
		out.hash = mem.Hash()
		out.events, out.recoveries = s.Events, s.Recoveries
	}
	f.Release()
	if !traced {
		return out, nil, nil
	}
	ts[4] = time.Now()
	b.runs++
	if b.images.reused(mem) {
		b.reused++
	}
	return out, []child{
		{"health.NewWithTemp", -1, ts[0], ts[1]},
		{"core.New", -1, ts[1], ts[2]},
		{"core.Run", -1, ts[2], ts[3]},
		{"core.Release", -1, ts[3], ts[4]},
	}, nil
}

// check holds a run to the Figure-12 shape and to the point's first run.
func (b *paperBench) check(i int, out paperOutcome) bool {
	pt := b.grid[i]
	first := b.first[i]
	if first == nil {
		b.first[i] = &out
		var want string
		switch {
		case pt.system == core.Artemis && !out.completed:
			want = "ARTEMIS completes at every delay"
		case pt.system == core.Mayfly && pt.delay < paperMITD && !out.completed:
			want = "Mayfly completes below the MITD"
		case pt.system == core.Mayfly && pt.delay >= paperMITD && !out.nonTerminated:
			want = "Mayfly does not terminate at or above the MITD"
		}
		if want != "" {
			b.failures = append(b.failures, fmt.Sprintf("paper %v %v: %s", pt.system, pt.delay, want))
			return false
		}
		return true
	}
	if out != *first {
		if len(b.failures) < 8 {
			b.failures = append(b.failures, fmt.Sprintf("paper %v %v: repetition differs: %+v, first run %+v",
				pt.system, pt.delay, out, *first))
		}
		return false
	}
	return true
}

func (b *paperBench) finish() (outcome, error) {
	var points uint64
	var writes, bytes, reboots, elapsed float64
	var events, recoveries, artemisPoints float64
	for i, o := range b.first {
		if o == nil {
			return outcome{}, fmt.Errorf("paper: grid point %d never ran", i)
		}
		points = mix(points, uint64(o.reboots))
		points = mix(points, uint64(o.elapsed))
		points = mix(points, o.outputs)
		points = mix(points, o.hash)
		writes += float64(o.writes)
		bytes += float64(o.bytesWritten)
		reboots += float64(o.reboots)
		elapsed += o.elapsed.Seconds()
		if b.grid[i].system == core.Artemis {
			events += float64(o.events)
			recoveries += float64(o.recoveries)
			artemisPoints++
		}
	}
	n := float64(len(b.first))
	layers := map[string]float64{
		"nvm.writes_per_run":         writes / n,
		"nvm.bytes_written_per_run":  bytes / n,
		"device.reboots_per_run":     reboots / n,
		"sim.elapsed_s_per_run":      elapsed / n,
		"monitor.events_per_run":     events / artemisPoints,
		"artemis.recoveries_per_run": recoveries / artemisPoints,
	}
	if b.runs > 0 {
		layers["nvm.pool_recycle_ratio"] = float64(b.reused) / float64(b.runs)
	}
	if b.artemisEvents > 0 {
		layers["host.ns_per_sim_event"] = float64(b.artemisRun) / float64(b.artemisEvents)
	}
	return outcome{
		failures: b.failures,
		digests:  map[string]string{"paper.points": hex(points), "paper.order": hex(b.orderSum)},
		layers:   layers,
	}, nil
}
