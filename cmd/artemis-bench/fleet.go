package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/tinysystems/artemis-go/internal/fleetserver"
)

// The fleet workload mirrors `artemis-fleet -devices 1024` driven in
// process: one seeded batch of one event per device, then one step.
const (
	fleetDevices     = 1024
	fleetShards      = 8
	fleetWarmupSteps = 3
)

type fleetBench struct {
	srv      *fleetserver.Server
	gen      *eventGen
	accepted int64
	failures []string
	// batch0 and digest0 are the first step's input and digest, which a
	// single-shard, single-worker reference server must reproduce.
	batch0  []fleetserver.Event
	digest0 uint64
	rssKB   uint64

	// Taken around the traced phase; m1 is nil until one has run.
	m0, m1   map[string]float64
	t0, t1   time.Time
	queueMax int
}

// registerFleet registers fleetDevices devices round-robin over the
// server's specs, as `artemis-fleet -devices` does, and returns the
// targets for ingested events.
func registerFleet(srv *fleetserver.Server) ([]target, error) {
	tasks, err := injectableSpecs()
	if err != nil {
		return nil, err
	}
	specs := srv.SpecNames()
	var targets []target
	for i := 0; i < fleetDevices; i++ {
		st, err := srv.Register("", specs[i%len(specs)])
		if err != nil {
			return nil, err
		}
		if t, ok := tasks[st.Spec]; ok {
			targets = append(targets, target{st.ID, t})
		}
	}
	return targets, nil
}

func setupFleet(seed int64) (bench, error) {
	rss := procStatusKB("VmRSS")
	srv, err := fleetserver.New(fleetserver.Config{Shards: fleetShards, Workers: workers})
	if err != nil {
		return nil, err
	}
	targets, err := registerFleet(srv)
	if err != nil {
		return nil, err
	}
	b := &fleetBench{srv: srv, gen: newEventGen(seed, targets), rssKB: rss}
	var p phase
	if err := b.timed(&limit{ops: fleetWarmupSteps}, &p, nil); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *fleetBench) timed(lim *limit, p *phase, rec *recorder) error {
	ctx := context.Background()
	if rec != nil {
		m, err := b.metrics()
		if err != nil {
			return err
		}
		b.m0, b.t0 = m, time.Now()
	}
	for n := 0; !lim.done(n); n++ {
		batch := b.gen.batch(fleetDevices)
		start := time.Now()
		res, ingestErr := b.srv.Ingest(batch)
		mid := time.Now()
		step, err := b.srv.StepOnce(ctx)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("fleet step: %w", err)
		}
		p.lat = append(p.lat, ms(end.Sub(start)))
		p.items += int64(step.DeviceSteps)
		p.attempted += int64(len(batch))
		p.failed += int64(res.Rejected)
		b.accepted += int64(res.Accepted)
		if ingestErr != nil && len(b.failures) < 8 {
			b.failures = append(b.failures, fmt.Sprintf("fleet: ingest refused %d events: %v", res.Rejected, ingestErr))
		}
		if b.batch0 == nil {
			b.batch0, b.digest0 = batch, step.Digest
		}
		if rec != nil {
			b.queueMax = max(b.queueMax, res.Accepted)
			rec.op("step", start, end, 1, []child{
				{"fleetserver.Ingest", -1, start, mid},
				{"fleetserver.StepOnce", -1, mid, end},
			})
		}
	}
	if rec != nil {
		m, err := b.metrics()
		if err != nil {
			return err
		}
		b.m1, b.t1 = m, time.Now()
	}
	return nil
}

// metrics reads the server's /metrics exposition in process.
func (b *fleetBench) metrics() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := b.srv.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}

func (b *fleetBench) finish() (outcome, error) {
	ctx := context.Background()
	if err := b.srv.Shutdown(ctx); err != nil {
		return outcome{}, err
	}
	var delivered uint64
	for _, d := range b.srv.Devices() {
		delivered += d.EventsDelivered
	}
	if delivered != uint64(b.accepted) {
		b.failures = append(b.failures, fmt.Sprintf("fleet: %d events delivered, %d accepted", delivered, b.accepted))
	}

	// The reference: one shard, one worker, same registrations, same first
	// batch. Sharding and workers must not change the digest.
	ref, err := fleetserver.New(fleetserver.Config{Shards: 1, Workers: 1})
	if err != nil {
		return outcome{}, err
	}
	if _, err := registerFleet(ref); err != nil {
		return outcome{}, err
	}
	if _, err := ref.Ingest(b.batch0); err != nil {
		return outcome{}, fmt.Errorf("fleet reference ingest: %w", err)
	}
	step, err := ref.StepOnce(ctx)
	if err != nil {
		return outcome{}, fmt.Errorf("fleet reference step: %w", err)
	}
	if err := ref.Shutdown(ctx); err != nil {
		return outcome{}, err
	}
	if step.Digest != b.digest0 {
		b.failures = append(b.failures, fmt.Sprintf("fleet: first-step digest %016x, single-shard reference %016x", b.digest0, step.Digest))
	}

	layers := map[string]float64{}
	if b.m1 != nil {
		layers = serverLayers(b.m0, b.m1, b.t1.Sub(b.t0).Seconds())
		layers["fleetserver.queue_depth_max"] = float64(b.queueMax)
		layers["fleet.rss_bytes_per_device"] = float64(procStatusKB("VmHWM")-b.rssKB) * 1024 / fleetDevices
	}
	if b.accepted > 0 {
		layers["fleetserver.delivered_ratio"] = float64(delivered) / float64(b.accepted)
	}
	return outcome{
		failures: b.failures,
		digests:  map[string]string{"fleet.first_step": hex(b.digest0), "fleet.stream": hex(b.gen.digest)},
		layers:   layers,
	}, nil
}
