package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsGolden pins Tracer.Metrics byte for byte: the empty tracer,
// whose labelled families render as headers only, and the populate run.
func TestMetricsGolden(t *testing.T) {
	full := New()
	populate(full)
	for _, c := range []struct {
		name string
		tr   *Tracer
	}{
		{"empty", New()},
		{"populate", full},
	} {
		var buf bytes.Buffer
		if err := c.tr.Metrics(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkGolden(t, filepath.Join("testdata", "metrics_"+c.name+".prom"), buf.Bytes())
	}
}

// checkGolden fails t unless got equals the contents of the golden file.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden file\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
