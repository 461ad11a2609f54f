package fleetserver

import (
	"io"

	"github.com/tinysystems/artemis-go/internal/fleet"
	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// WriteMetrics renders the server's Prometheus text exposition: the
// per-shard engine series cached after the last step, plus the serving
// layer's own counters (registry size, ingestion, queue backlog, verdicts,
// step latency). It copies Server state under the lock — never the engine,
// which a shard worker may be stepping concurrently — and writes outside
// it, returning the first write error.
func (s *Server) WriteMetrics(w io.Writer) error {
	s.mu.Lock()
	shards := append([]telemetry.FleetShard(nil), s.shardStats...)
	backlog := 0
	for _, d := range s.order {
		backlog += len(d.queue)
	}
	families := [...]struct {
		typ, name, help string
		v               uint64
	}{
		{"gauge", "artemis_fleetserver_devices", "Registered devices.", uint64(len(s.order))},
		{"gauge", "artemis_fleetserver_queue_depth", "Ingested events awaiting the next step.", uint64(backlog)},
		{"counter", "artemis_fleetserver_steps_total", "Completed fleet steps.", s.steps},
		{"counter", "artemis_fleetserver_reshards_total", "Engine rebuilds after membership changes.", s.reshards},
		{"counter", "artemis_fleetserver_ingest_batches_total", "Ingestion batches received.", s.ingest.batches},
		{"counter", "artemis_fleetserver_ingest_events_total", "Events accepted onto device queues.", s.ingest.events},
		{"counter", "artemis_fleetserver_ingest_rejected_total", "Events rejected (backpressure or bad batch).", s.ingest.rejected},
		{"counter", "artemis_fleetserver_ingest_delivered_total", "Queued events delivered to device monitors.", s.ingest.delivered},
	}
	verdicts := telemetry.SortedSamples(s.verdicts)
	stepLat := s.stepLat.Clone()
	s.mu.Unlock()

	x := telemetry.NewExposition(w)
	fleet.WriteShardMetrics(x, shards)
	for _, f := range families {
		x.Family(f.typ, f.name, f.help, "", telemetry.Sample{Value: f.v})
	}
	x.Family("counter", "artemis_fleetserver_verdicts_total", "Monitor verdicts by corrective action.", "action", verdicts...)
	x.Histogram("artemis_fleetserver_step_latency_seconds", "Fleet step wall time.", stepLat)
	return x.Err()
}
