//go:build race

package fleetserver

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under -race because instrumentation perturbs them.
const raceEnabled = true
