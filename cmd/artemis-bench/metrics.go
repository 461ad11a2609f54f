package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions (main_test.go holds the two together); the bounds
// live only in BENCHMARK.json, which -compare reads.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run reports. An "item" is the
// workload's unit of work and an "op" the unit its latency is taken over:
//
//	paper   item = one application run, op = one pass over the 20-point grid
//	chaos   item = one crash point, op = one exhaustive sweep
//	fleet   item = one device-step, op = one Ingest+StepOnce
//	ingest  item = one delivered event, op = one batch, scheduled send to verdict
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"items_per_s", "1/s", "higher"},
	{"cpu_us_per_item", "us", "lower"},
	{"latency_p95_ms", "ms", "lower"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not exercise reads 0 there.
var perLayer = []metricDef{
	// Self CPU time by the leaf frame's package, as a share of all samples.
	{"cpu.nvm", "share", "lower"},
	{"cpu.monitor", "share", "lower"},
	{"cpu.codegen", "share", "lower"},
	{"cpu.ir", "share", "lower"},
	{"cpu.artemis", "share", "lower"},
	{"cpu.mayfly", "share", "lower"},
	{"cpu.task", "share", "lower"},
	{"cpu.device", "share", "lower"},
	{"cpu.energy", "share", "lower"},
	{"cpu.core", "share", "lower"},
	{"cpu.spec_transform", "share", "lower"},
	{"cpu.fleet", "share", "lower"},
	{"cpu.parallel", "share", "lower"},
	{"cpu.fleetserver", "share", "lower"},
	{"cpu.nethttp", "share", "lower"},
	{"cpu.json", "share", "lower"},
	{"cpu.chaos", "share", "lower"},
	{"cpu.goruntime_gc", "share", "lower"},
	{"cpu.goruntime_other", "share", "lower"},
	{"cpu.other", "share", "lower"},
	// Share of samples whose stack contains the named function.
	{"cum.nvm_commit", "share", "lower"},
	{"cum.monitor_deliver", "share", "lower"},
	{"cum.codegen_step", "share", "lower"},
	{"cum.inject_event", "share", "lower"},
	{"cum.framework_run", "share", "lower"},
	{"cum.core_new", "share", "lower"},
	{"cum.fleetserver_postrun", "share", "lower"},
	// Simulated counts: exact, and identical on every run of one seed.
	{"nvm.writes_per_run", "count", "lower"},
	{"nvm.bytes_written_per_run", "B", "lower"},
	{"chaos.nvm_writes_per_sweep", "count", "lower"},
	{"monitor.events_per_run", "count", "lower"},
	{"device.reboots_per_run", "count", "lower"},
	{"artemis.recoveries_per_run", "count", "lower"},
	{"sim.elapsed_s_per_run", "s", "lower"},
	{"fleet.reboots_per_device_step", "count", "lower"},
	{"chaos.crash_points_per_sweep", "count", "lower"},
	{"chaos.pruned_ratio", "ratio", "higher"},
	// Host time and counts at the layer boundaries the benchmark calls.
	{"nvm.pool_recycle_ratio", "ratio", "higher"},
	{"host.ns_per_sim_event", "ns", "lower"},
	{"core.run_us", "us", "lower"},
	{"core.run_p99_us", "us", "lower"},
	{"core.new_us", "us", "lower"},
	{"core.release_us", "us", "lower"},
	{"spec.compile_ms", "ms", "lower"},
	{"fleet.rss_bytes_per_device", "B", "lower"},
	{"fleetserver.ingest_us", "us", "lower"},
	{"fleetserver.step_once_ms", "ms", "lower"},
	{"fleetserver.events_delivered_per_step", "count", "higher"},
	{"fleetserver.delivered_ratio", "ratio", "higher"},
	{"fleetserver.steps_per_s", "1/s", "higher"},
	{"fleetserver.queue_depth_max", "count", "lower"},
	{"http.scrape_ms", "ms", "lower"},
	{"http.post_ms", "ms", "lower"},
	{"http.post_p99_ms", "ms", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	// Measured over the untraced part of the traced run. op.latency_p50_ms
	// is the workload's median op latency, scaled like the end-to-end
	// metrics; its run-to-run spread on paper was too wide for an
	// end-to-end bound (README).
	{"op.latency_p50_ms", "ms", "lower"},
	{"alloc.allocs_per_op", "count", "lower"},
	{"alloc.bytes_per_op", "B", "lower"},
	{"goruntime.gc_cycles_per_s", "1/s", "lower"},
	{"goruntime.heap_inuse_mb", "MiB", "lower"},
	// The harness itself.
	{"ledger.unattributed_share", "share", "lower"},
	{"tracing.overhead_ratio", "ratio", "lower"},
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted. ok is false
// when fewer than beyond samples lie above it: such a percentile says more
// about the few slowest samples than about the system.
func percentile(sorted []float64, p float64, beyond int) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps p*n that is a whole number in exact arithmetic (95% of
	// 200) from rounding up a rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < beyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// sortedCopy returns xs sorted ascending, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// the spreads -compare prints match the acceptance arithmetic.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle of xs (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
