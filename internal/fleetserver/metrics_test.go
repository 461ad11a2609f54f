package fleetserver

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// errFull is the error fullWriter fails with.
var errFull = errors.New("no space left on device")

// fullWriter accepts room bytes and fails every write after that.
type fullWriter struct{ room int }

func (w *fullWriter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		n := w.room
		w.room = 0
		return n, errFull
	}
	w.room -= len(p)
	return len(p), nil
}

// steppedServer registers devices round-robin over every spec on shards
// shards and steps it twice with events queued, so its verdict, ingest and
// latency series are all populated.
func steppedServer(t *testing.T, shards, devices int) *Server {
	t.Helper()
	s, err := New(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	specs := s.SpecNames()
	target := ""
	for i := 0; i < devices; i++ {
		st, err := s.Register("", specs[i%len(specs)])
		if err != nil {
			t.Fatal(err)
		}
		if st.Spec == "health" && target == "" {
			target = st.ID
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Ingest([]Event{{Device: target, Kind: "start", Task: "send"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StepOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestWriteMetricsWriteError checks that Server.WriteMetrics reports a
// failing writer, whether the first write or the last one fails.
func TestWriteMetricsWriteError(t *testing.T) {
	s := steppedServer(t, 2, 6)
	var full bytes.Buffer
	if err := s.WriteMetrics(&full); err != nil {
		t.Fatal(err)
	}
	for _, room := range []int{0, full.Len() / 2, full.Len() - 1} {
		if err := s.WriteMetrics(&fullWriter{room: room}); !errors.Is(err, errFull) {
			t.Errorf("room %d of %d bytes: WriteMetrics returned %v, want %v", room, full.Len(), err, errFull)
		}
	}
}

// writeMetricsAllocBudget caps the allocations of one Server.WriteMetrics
// at the ingest workload's shape (8 shards, 64 devices), which scrapes
// /metrics 500 times a second. The measured count is 6: the shard copy,
// the sorted verdicts, the histogram copy and its counts, the writer's line
// buffer and the shard samples. Formatting through fmt again costs over a
// hundred more (149 before the shared writer).
const writeMetricsAllocBudget = 6

func TestWriteMetricsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	s := steppedServer(t, 8, 64)
	var buf bytes.Buffer
	render := func() {
		buf.Reset()
		if err := s.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
	}
	render() // size the buffer
	avg := testing.AllocsPerRun(50, render)
	t.Logf("WriteMetrics at 8 shards, 64 devices: %.0f allocs (budget %d)", avg, writeMetricsAllocBudget)
	if avg > writeMetricsAllocBudget {
		t.Errorf("WriteMetrics allocates %.0f times, budget is %d", avg, writeMetricsAllocBudget)
	}
	if n := testing.AllocsPerRun(100, func() { s.stepLat.Observe(0.003) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.0f times, want 0", n)
	}
}
