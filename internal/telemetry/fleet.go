package telemetry

import (
	"fmt"
	"io"
)

// FleetShard is one fleet shard's cumulative counters, exported through
// FleetMetrics. The fleet engine (internal/fleet) owns the counting; this
// package owns the exposition format, next to the per-run Metrics exporter,
// so every Prometheus surface of the repository renders through one place.
type FleetShard struct {
	// Shard is the shard index; Devices the number of devices it hosts.
	Shard   int
	Devices int
	// Steps counts device runs executed by the shard; Completed and
	// NonTerminated partition their outcomes; Reboots totals the power
	// failures the shard's devices survived.
	Steps         uint64
	Completed     uint64
	NonTerminated uint64
	// Reboots totals the device reboots across the shard's runs.
	Reboots uint64
	// Recycled counts the device runs whose FRAM image the process-wide
	// recycle pool served (nvm.Memory.Recycled) instead of allocating one.
	Recycled uint64
}

// FleetMetrics writes a Prometheus-style text snapshot of the fleet's
// per-shard counters, in shard order. Output is fully deterministic.
func FleetMetrics(w io.Writer, shards []FleetShard) error {
	series := func(name, help string, value func(FleetShard) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, s := range shards {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, s.Shard, value(s))
		}
	}
	fmt.Fprintf(w, "# HELP artemis_fleet_shard_devices Devices hosted per shard.\n# TYPE artemis_fleet_shard_devices gauge\n")
	for _, s := range shards {
		fmt.Fprintf(w, "artemis_fleet_shard_devices{shard=\"%d\"} %d\n", s.Shard, s.Devices)
	}
	series("artemis_fleet_device_steps_total", "Device runs executed per shard.",
		func(s FleetShard) uint64 { return s.Steps })
	series("artemis_fleet_completed_total", "Device runs that completed per shard.",
		func(s FleetShard) uint64 { return s.Completed })
	series("artemis_fleet_nonterminated_total", "Device runs that exhausted their reboot or step budget per shard.",
		func(s FleetShard) uint64 { return s.NonTerminated })
	series("artemis_fleet_reboots_total", "Device reboots observed per shard.",
		func(s FleetShard) uint64 { return s.Reboots })
	series("artemis_fleet_pool_recycled_total", "Device runs served a recycled FRAM image from the pool, per shard.",
		func(s FleetShard) uint64 { return s.Recycled })
	return nil
}
