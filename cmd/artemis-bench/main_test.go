package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{200, 95, 190, true},  // rank 190, exactly 10 samples above
		{199, 95, 0, false},   // rank 190, 9 above: refused
		{200, 50, 100, true},  // rank 100
		{20, 50, 10, true},    // rank 10, 10 above
		{19, 50, 0, false},    // rank 10, 9 above
		{200, 99, 0, false},   // rank 198, 2 above
		{1000, 99, 990, true}, // rank 990
		{0, 50, 0, false},
	} {
		got, ok := percentile(xs[:c.n], c.p, minBeyond)
		if ok != c.wantOK || got != c.want {
			t.Errorf("p%v of 1..%d = %v, %v; want %v, %v", c.p, c.n, got, ok, c.want, c.wantOK)
		}
	}
	// Nearest rank takes a sample, never an interpolation.
	if got, _ := percentile([]float64{1, 2, 3, 4}, 26, 0); got != 2 {
		t.Errorf("p26 of 1..4 = %v, want 2", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each input.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{16, 1, 8, 2, 4}, [3]float64{1.5, 4, 12}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestAggregateTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := aggregateTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	// Sample weights in ms; the fixture totals 150 ms once the 30 ms of
	// calibration kernel is left out.
	want := map[string]float64{
		"cpu.nvm": 40, "cpu.goruntime_gc": 20, "cpu.goruntime_other": 20, "cpu.nethttp": 30,
		"cpu.json": 10, "cpu.parallel": 10, "cpu.codegen": 10, "cpu.other": 10,
		"cum.nvm_commit": 40, "cum.monitor_deliver": 50, "cum.framework_run": 40, "cum.core_new": 10,
		"cum.codegen_step": 10, "cum.inject_event": 10, "cum.fleetserver_postrun": 10,
	}
	for name, share := range got {
		if w := want[name] / 150; math.Abs(share-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, share, w)
		}
	}
	var sum float64
	for name, share := range got {
		if strings.HasPrefix(name, "cpu.") {
			sum += share
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("cpu.* shares sum to %v, want 1", sum)
	}
}

func loadRepoBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := loadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bf := loadRepoBenchmark(t)
	legal := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(kind string, defs []metricDef, file []metricDef) {
		if len(defs) != len(file) {
			t.Errorf("%s: %d metrics defined, %d in BENCHMARK.json", kind, len(defs), len(file))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if !legal.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: illegal or repeated name %q", kind, d.name)
			}
			seen[d.name] = true
			if i < len(file) && d != file[i] {
				t.Errorf("%s[%d]: defined %+v, BENCHMARK.json %+v", kind, i, d, file[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("workload %d is %q, BENCHMARK.json lists %v", i, w.name, names)
		}
	}
}

// smokeOps are op counts small enough for a test and large enough to cross
// every code path of a workload.
var smokeOps = map[string]int{"paper": 4, "chaos": 2, "fleet": 2, "ingest": 40}

// emitted runs a workload in process and parses what it prints.
func emitted(t *testing.T, o opts) (record, map[string]any) {
	t.Helper()
	r, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, buf.String())
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) >= 2 && f[1] != "digest" && f[1] != "FAILED" && f[0] != "detail" && !legal.MatchString(f[1]) {
			t.Errorf("printed metric name %q is not legal", f[1])
		}
	}
	return r, last
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := opts{workload: w.name, seed: 1, ops: smokeOps[w.name]}
			r, last := emitted(t, o)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("untraced: correct %v, %d of %d failed: %v", r.Correct, r.Failed, r.Attempted, r.Failures)
			}
			keys := make([]string, 0, len(last))
			for k := range last {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
				t.Errorf("result keys %v", keys)
			}
			metrics := last["metrics"].(map[string]any)
			for _, d := range endToEnd {
				v, ok := metrics[d.name].(map[string]any)
				if !ok || v["unit"] != d.unit || !(v["value"].(float64) > 0) {
					t.Errorf("end-to-end %s = %v, want a positive value in %s", d.name, metrics[d.name], d.unit)
				}
			}
			if len(metrics) != len(endToEnd) {
				t.Errorf("%d metrics printed, want %d", len(metrics), len(endToEnd))
			}

			o.traceDir = t.TempDir()
			r, last = emitted(t, o)
			if !r.Correct {
				t.Fatalf("traced: %v", r.Failures)
			}
			metrics = last["metrics"].(map[string]any)
			if len(metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics printed, want %d", len(metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := metrics[d.name]; !ok {
					t.Errorf("per-layer %s missing", d.name)
				}
			}
			for _, f := range []string{"spans.jsonl", "cpu.pprof"} {
				if st, err := os.Stat(filepath.Join(o.traceDir, f)); err != nil || st.Size() == 0 {
					t.Errorf("%s not written: %v", f, err)
				}
			}
		})
	}
}

// runFor sets a workload up, runs ops traced ops and returns its outcome.
func runFor(t *testing.T, name string, seed int64, ops int) outcome {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	var p phase
	if err := b.timed(&limit{ops: ops}, &p, newRecorder()); err != nil {
		t.Fatal(err)
	}
	out, err := b.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.failures) > 0 {
		t.Fatal(out.failures)
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	// Simulated counts: exact, whatever the host did.
	exact := map[string][]string{
		"paper": {"nvm.writes_per_run", "nvm.bytes_written_per_run", "device.reboots_per_run",
			"sim.elapsed_s_per_run", "monitor.events_per_run"},
		"chaos": {"chaos.crash_points_per_sweep", "chaos.nvm_writes_per_sweep", "nvm.writes_per_run",
			"device.reboots_per_run", "artemis.recoveries_per_run"},
		"fleet": {"fleet.reboots_per_device_step", "fleetserver.events_delivered_per_step"},
	}
	// Digests that depend on the seed, and ones that must not.
	seeded := map[string][]string{"paper": {"paper.order"}, "fleet": {"fleet.stream"}, "ingest": {"ingest.stream"}}
	fixed := map[string][]string{"paper": {"paper.points"}, "chaos": {"chaos.counts"}}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runFor(t, w.name, 1, smokeOps[w.name])
			b := runFor(t, w.name, 1, smokeOps[w.name])
			c := runFor(t, w.name, 2, smokeOps[w.name])
			for k, v := range a.digests {
				if b.digests[k] != v {
					t.Errorf("seed 1 twice: digest %s %s then %s", k, v, b.digests[k])
				}
			}
			for _, k := range exact[w.name] {
				if a.layers[k] != b.layers[k] || a.layers[k] != c.layers[k] || a.layers[k] == 0 {
					t.Errorf("%s: %v, %v (seed 1), %v (seed 2); want equal and non-zero", k, a.layers[k], b.layers[k], c.layers[k])
				}
			}
			for _, k := range seeded[w.name] {
				if a.digests[k] == c.digests[k] {
					t.Errorf("digest %s is %s for seeds 1 and 2", k, a.digests[k])
				}
			}
			for _, k := range fixed[w.name] {
				if a.digests[k] != c.digests[k] {
					t.Errorf("digest %s depends on the seed: %s, %s", k, a.digests[k], c.digests[k])
				}
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		old, cur []float64
		better   string
		want     string
	}{
		{steady, []float64{103, 104, 102, 103, 103}, "lower", "ok"},
		{steady, []float64{115, 116, 114, 115, 115}, "lower", "REGRESSED"},
		{steady, []float64{85, 86, 84, 85, 85}, "higher", "REGRESSED"},
		{steady, []float64{85, 86, 84, 85, 85}, "lower", "ok"},
		{[]float64{80, 120, 100, 90, 110}, []float64{100, 101, 99, 100, 100}, "lower", "unresolved"},
		{[]float64{80, 120, 100, 90, 110}, []float64{60, 70, 65, 62, 68}, "lower", "better"},
	} {
		if _, got := verdict(c.old, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", c.old, c.cur, c.better, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ips ...float64) string {
		var res results
		for _, v := range ips {
			r := record{Workload: "paper", Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				r.Metrics[d.name] = metricValue{Value: 1, Unit: d.unit}
			}
			r.Metrics["items_per_s"] = metricValue{Value: v, Unit: "1/s"}
			res.Runs = append(res.Runs, r, record{Workload: "paper", Traced: true})
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", 1000, 1010, 990)
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	var buf bytes.Buffer
	regressed, err := compareFiles(bench, old, write("same.json", 1005)+","+write("same2.json", 995), &buf)
	if err != nil || regressed {
		t.Fatalf("same numbers: regressed %v, err %v\n%s", regressed, err, buf.String())
	}
	if !strings.Contains(buf.String(), "paper   setup_s +0.0% ok") || !strings.Contains(buf.String(), "chaos   setup_s missing") {
		t.Errorf("unexpected rows:\n%s", buf.String())
	}
	buf.Reset()
	regressed, err = compareFiles(bench, old, write("slow.json", 700, 710, 690), &buf)
	if err != nil || !regressed || !strings.Contains(buf.String(), "items_per_s +30.0% REGRESSED") {
		t.Fatalf("30%% slower: regressed %v, err %v\n%s", regressed, err, buf.String())
	}
}
