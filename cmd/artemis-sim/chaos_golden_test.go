package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestChaosReportGolden pins the two seed-42 campaign reports of the weekly
// deep-chaos job byte for byte: every crash-point, radio, sensor, bit-flip
// and swap tally, with the integrity layer off and on. A change that moves
// any of them shows up here as a diff; regenerate the files with
//
//	go test ./cmd/artemis-sim -run TestChaosReportGolden -update
//
// and say in the change log which lines moved and why.
func TestChaosReportGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"chaos_seed42", nil},
		{"chaos_seed42_integrity", []string{"-integrity", "-flight", "64"}},
	} {
		var out bytes.Buffer
		args := append([]string{"-chaos", "-seed", "42", "-chaos-fault-runs", "50", "-workers", "0"}, c.args...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, out.String())
		}
		checkGolden(t, filepath.Join("testdata", c.name+".txt"), out.Bytes())
	}
}
