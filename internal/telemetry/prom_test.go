package telemetry

import (
	"bytes"
	"errors"
	"testing"
)

// errFull is the error fullWriter fails with.
var errFull = errors.New("no space left on device")

// fullWriter accepts room bytes and fails every write after that, counting
// the writes it was asked for.
type fullWriter struct{ room, writes int }

func (w *fullWriter) Write(p []byte) (int, error) {
	w.writes++
	if len(p) > w.room {
		n := w.room
		w.room = 0
		return n, errFull
	}
	w.room -= len(p)
	return len(p), nil
}

// TestMetricsWriteError checks that Tracer.Metrics reports a failing
// writer, whether the first write or the last one fails.
func TestMetricsWriteError(t *testing.T) {
	tr := New()
	populate(tr)
	var full bytes.Buffer
	if err := tr.Metrics(&full); err != nil {
		t.Fatal(err)
	}
	for _, room := range []int{0, full.Len() / 2, full.Len() - 1} {
		if err := tr.Metrics(&fullWriter{room: room}); !errors.Is(err, errFull) {
			t.Errorf("room %d of %d bytes: Metrics returned %v, want %v", room, full.Len(), err, errFull)
		}
	}
}

// TestExpositionKeepsFirstError checks that no write follows a failed one
// and that Err keeps the first error.
func TestExpositionKeepsFirstError(t *testing.T) {
	w := &fullWriter{}
	x := NewExposition(w)
	x.Family("counter", "a_total", "A.", "", Sample{Value: 1})
	x.Histogram("b_seconds", "B.", NewHistogram(0.1, 1))
	if !errors.Is(x.Err(), errFull) {
		t.Errorf("Err() = %v, want %v", x.Err(), errFull)
	}
	if w.writes != 1 {
		t.Errorf("%d writes reached the writer, want 1", w.writes)
	}
}

// TestHistogramClone checks that a clone keeps its counts when the source
// observes more.
func TestHistogramClone(t *testing.T) {
	h := NewHistogram(0.5, 1)
	h.Observe(0.25)
	c := h.Clone()
	h.Observe(0.75)
	h.Observe(2)
	var buf bytes.Buffer
	x := NewExposition(&buf)
	x.Histogram("h", "H.", c)
	if err := x.Err(); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP h H.
# TYPE h histogram
h_bucket{le="0.5"} 1
h_bucket{le="1"} 1
h_bucket{le="+Inf"} 1
h_sum 0.25
h_count 1
`
	if got := buf.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}
