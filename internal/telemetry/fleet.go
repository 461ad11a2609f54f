package telemetry

// FleetShard is one fleet shard's cumulative counters. The fleet engine
// (internal/fleet) owns the counting and renders them through
// fleet.WriteShardMetrics, which the fleet server's /metrics shares.
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
	Reboots       uint64
	// Recycled counts the device runs that allocated no FRAM image
	// (nvm.Memory.Recycled): a re-armed deployment, or a new one on an
	// image the process-wide recycle pool served.
	Recycled uint64
}
