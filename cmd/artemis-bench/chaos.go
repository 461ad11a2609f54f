package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/tinysystems/artemis-go/internal/chaos"
	"github.com/tinysystems/artemis-go/internal/core"
)

const chaosWarmupSweeps = 1

type chaosBench struct {
	e        *chaos.Explorer
	explored int
	pruned   int
	failures []string

	// Filled while traced, by the explorer's worker goroutines.
	mu       sync.Mutex
	rec      *recorder
	building map[*core.Framework]int // framework -> index of its core.New span
	kids     []child
	images   recentImages
	built    int64
	reused   int64
	points   int64
	writes   int64
	bytes    int64
	reboots  int64
	recov    int64
	events   int64
	sweeps   int64
}

func setupChaos(seed int64) (bench, error) {
	e := chaos.NewHealthExplorer(seed, 0)
	e.Workers = workers
	b := &chaosBench{e: e, building: map[*core.Framework]int{}}
	b.instrument()
	var p phase
	if err := b.timed(&limit{ops: chaosWarmupSweeps}, &p, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// instrument wraps the explorer's Build and adds a no-op PostCheck, so a
// traced sweep records one span per crash point and the NVM traffic of each
// recovered run. Untraced, both only test b.rec.
func (b *chaosBench) instrument() {
	build := b.e.Build
	b.e.Build = func() (*core.Framework, error) {
		if b.rec == nil {
			return build()
		}
		start := time.Now()
		f, err := build()
		end := time.Now()
		if err != nil {
			return nil, err
		}
		b.mu.Lock()
		b.building[f] = len(b.kids)
		b.kids = append(b.kids, child{"core.New", -1, start, end})
		b.built++
		if b.images.reused(f.MCU().Mem) {
			b.reused++
		}
		b.mu.Unlock()
		return f, nil
	}
	b.e.PostCheck = func(f *core.Framework, _, got chaos.Outcome) []chaos.OracleFailure {
		if b.rec == nil {
			return nil
		}
		end := time.Now()
		st := f.MCU().Mem.Stats()
		var events int
		if rt := f.Artemis(); rt != nil {
			events = rt.Stats().Events
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		i, ok := b.building[f]
		if !ok {
			return nil
		}
		delete(b.building, f)
		b.kids[i].parent = len(b.kids)
		b.kids = append(b.kids, child{"chaos.point", -1, b.kids[i].start, end})
		b.points++
		b.writes += st.Writes
		b.bytes += st.BytesWritten
		b.reboots += int64(got.Reboots)
		b.recov += int64(got.Recoveries)
		b.events += int64(events)
		return nil
	}
}

func (b *chaosBench) timed(lim *limit, p *phase, rec *recorder) error {
	b.rec = rec
	defer func() { b.rec = nil }()
	for n := 0; !lim.done(n); n++ {
		b.kids = b.kids[:0]
		clear(b.building)
		start := time.Now()
		rep, err := b.e.Run()
		end := time.Now()
		if err != nil {
			return err
		}
		p.lat = append(p.lat, ms(end.Sub(start)))
		p.items += int64(rep.Explored)
		p.attempted += int64(rep.Explored)
		p.failed += int64(rep.Failed)
		if b.explored == 0 {
			b.explored, b.pruned = rep.Explored, rep.Pruned
		}
		switch {
		case rep.Failed != 0 && len(b.failures) < 8:
			b.failures = append(b.failures, fmt.Sprintf("chaos: %d crash points failed an oracle:\n%s", rep.Failed, rep))
		case rep.Explored != b.explored && len(b.failures) < 8:
			b.failures = append(b.failures, fmt.Sprintf("chaos: sweep explored %d points, first sweep %d", rep.Explored, b.explored))
		}
		if rec != nil {
			rec.op("sweep", start, end, workers, b.kids)
			b.sweeps++
		}
	}
	return nil
}

func (b *chaosBench) finish() (outcome, error) {
	layers := map[string]float64{
		"chaos.crash_points_per_sweep": float64(b.explored),
		"chaos.pruned_ratio":           float64(b.pruned) / float64(b.explored+b.pruned),
	}
	if b.sweeps > 0 {
		layers["chaos.nvm_writes_per_sweep"] = float64(b.writes) / float64(b.sweeps)
	}
	if b.points > 0 {
		n := float64(b.points)
		layers["nvm.writes_per_run"] = float64(b.writes) / n
		layers["nvm.bytes_written_per_run"] = float64(b.bytes) / n
		layers["device.reboots_per_run"] = float64(b.reboots) / n
		layers["artemis.recoveries_per_run"] = float64(b.recov) / n
		layers["monitor.events_per_run"] = float64(b.events) / n
	}
	if b.built > 0 {
		layers["nvm.pool_recycle_ratio"] = float64(b.reused) / float64(b.built)
	}
	return outcome{
		failures: b.failures,
		digests:  map[string]string{"chaos.counts": fmt.Sprintf("explored=%d pruned=%d", b.explored, b.pruned)},
		layers:   layers,
	}, nil
}
