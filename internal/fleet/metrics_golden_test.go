package fleet

import (
	"bytes"
	"os"
	"testing"
)

// TestWriteMetricsGolden pins Engine.WriteMetrics byte for byte at twelve
// shards, enough for a lexical sort of the shard label to show (shard="10"
// before shard="2"). The counters are set directly: how many runs the
// recycle pool serves depends on the garbage collector.
func TestWriteMetricsGolden(t *testing.T) {
	e, err := New(Config{Devices: 24, Shards: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range e.shards {
		n := uint64(i)
		sh.stats.Steps = 20 + 2*n
		sh.stats.Completed = 17 + n
		sh.stats.NonTerminated = 3 + n
		sh.stats.Reboots = 150 * n
		sh.stats.Recycled = 19 + 2*n
	}
	var buf bytes.Buffer
	if err := e.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/metrics_shards12.prom"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden file\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
