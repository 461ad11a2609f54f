package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsGolden pins the -metrics exposition of four single-device runs
// byte for byte: continuous-looking and Figure-12 charging delays, the
// flight recorder with the integrity layer, and the Ocelot runtime.
// Regenerate the files with
//
//	go test ./cmd/artemis-sim -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"charging1s", []string{"-charging", "1s"}},
		{"charging6m", []string{"-charging", "6m"}},
		{"flight_integrity", []string{"-charging", "1s", "-flight", "64", "-integrity"}},
		{"ocelot", []string{"-system", "ocelot", "-charging", "6m", "-budget", "980"}},
	} {
		out := filepath.Join(dir, c.name+".prom")
		if err := run(append(c.args, "-metrics", out), &bytes.Buffer{}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("testdata", "metrics_"+c.name+".prom"), got)
	}
}

// TestMetricsWriteError checks that a -metrics file that cannot be written
// fails the invocation, for a single run and for a fleet.
func TestMetricsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	for _, args := range [][]string{
		{"-charging", "1s", "-metrics", "/dev/full"},
		{"-fleet", "4", "-fleet-steps", "1", "-metrics", "/dev/full"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%v: run succeeded, want the write error", args)
		}
	}
}
