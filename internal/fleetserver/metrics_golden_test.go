package fleetserver

import (
	"bytes"
	"context"
	"os"
	"testing"
)

// TestWriteMetricsGolden pins Server.WriteMetrics byte for byte: an empty
// server, and a seven-device fleet on three shards after two steps with
// verdicts. Step latency is wall time and how many runs the recycle pool
// serves depends on the garbage collector, so the test sets both before
// rendering.
func TestWriteMetricsGolden(t *testing.T) {
	empty, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkMetricsGolden(t, empty, "testdata/metrics_empty.prom")

	s := frozenFleet(t, Config{Shards: 3})
	if _, err := s.Register("dev-6", "camera"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.StepOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Ingest([]Event{{Device: "dev-2", Kind: "start", Task: "send"}}); err != nil {
		t.Fatal(err)
	}
	s.stepLat = empty.stepLat // unobserved
	for _, v := range []float64{0.0004, 0.003, 0.003, 0.02, 0.7, 3} {
		s.stepLat.Observe(v)
	}
	for i := range s.shardStats {
		s.shardStats[i].Recycled = 0
	}
	checkMetricsGolden(t, s, "testdata/metrics_stepped.prom")
}

// checkMetricsGolden fails t unless s renders exactly the golden file.
func checkMetricsGolden(t *testing.T, s *Server, path string) {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden file\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
