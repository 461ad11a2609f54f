package telemetry

import (
	"fmt"
	"io"
)

// Metrics writes a Prometheus-style text snapshot of the run: counters for
// boots, power failures, per-task starts/commits/retries, per-machine
// property failures and transitions, per-action corrective actions, and
// integrity repairs; histograms for powered-on durations and task
// latencies. Output ordering is fully deterministic (sorted label values,
// fixed metric order). It returns the first write error.
func (t *Tracer) Metrics(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: Metrics on disabled tracer")
	}
	var (
		boots, powerFails uint64

		starts      = map[string]uint64{}
		commits     = map[string]uint64{}
		retries     = map[string]uint64{}
		transitions = map[string]uint64{}
		propFails   = map[string]uint64{}
		actions     = map[string]uint64{}
		repairs     = map[string]uint64{}

		// Bounds in seconds: intermittent on-periods sit in the ms–s
		// range, task latencies in the 100µs–100ms range.
		onDur   = NewHistogram(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5)
		taskLat = NewHistogram(0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 1)

		lastBoot  = int64(-1)
		inFlight  = map[string]bool{} // task started, not yet committed
		lastStart = map[string]int64{}
	)
	for _, ev := range t.events {
		switch ev.Kind {
		case KindBoot:
			boots++
			lastBoot = int64(ev.At)
		case KindPowerFailure:
			powerFails++
			if lastBoot >= 0 {
				onDur.Observe(float64(int64(ev.At)-lastBoot) / 1e6)
				lastBoot = -1
			}
		case KindTaskStart:
			task := t.NameOf(ev.Name)
			if inFlight[task] {
				retries[task]++ // re-execution after a torn attempt
			}
			inFlight[task] = true
			starts[task]++
			lastStart[task] = int64(ev.At)
		case KindTaskEnd:
			task := t.NameOf(ev.Name)
			if s, ok := lastStart[task]; ok {
				taskLat.Observe(float64(int64(ev.At)-s) / 1e6)
				delete(lastStart, task)
			}
		case KindTaskCommit:
			task := t.NameOf(ev.Name)
			inFlight[task] = false
			commits[task]++
		case KindMonitorTransition:
			transitions[t.NameOf(ev.Name)]++
		case KindPropertyFail:
			propFails[t.NameOf(ev.Name)]++
		case KindActionTaken:
			actions[t.NameOf(ev.Name)]++
		case KindScrubRepair:
			repairs[t.NameOf(ev.Name)]++
		}
	}
	x := NewExposition(w)
	counter := func(name, help string, v uint64) {
		x.Family("counter", name, help, "", Sample{Value: v})
	}
	labelled := func(name, help, label string, m map[string]uint64) {
		x.Family("counter", name, help, label, SortedSamples(m)...)
	}
	counter("artemis_boots_total", "Device boot attempts.", boots)
	counter("artemis_power_failures_total", "Supply brown-outs.", powerFails)
	labelled("artemis_task_starts_total", "Start events created per task.", "task", starts)
	labelled("artemis_task_commits_total", "Committed task boundaries per task.", "task", commits)
	labelled("artemis_task_retries_total", "Task re-executions after torn attempts.", "task", retries)
	labelled("artemis_monitor_transitions_total", "Monitor FSM state changes per machine.", "machine", transitions)
	labelled("artemis_property_failures_total", "Property violations per machine.", "machine", propFails)
	labelled("artemis_actions_total", "Arbitrated corrective actions executed.", "action", actions)
	labelled("artemis_scrub_repairs_total", "Integrity repairs per policy.", "policy", repairs)
	counter("artemis_commit_flips_total", "Runtime commit-group selector flips.", t.commitFlips)
	counter("artemis_flight_persisted_total", "Events committed to the NVM flight recorder.", t.PersistedCount())
	counter("artemis_events_total", "Telemetry events emitted.", uint64(len(t.events)))
	x.Histogram("artemis_on_duration_seconds", "Powered-on period lengths.", onDur)
	x.Histogram("artemis_task_latency_seconds", "Task start-to-end latencies.", taskLat)
	return x.Err()
}
