// Command artemis-bench is the repository's benchmark. It runs four
// workloads — the paper's Figure-12 sweep, the exhaustive crash sweep, an
// in-process fleet loadgen and HTTP ingest to verdict over a real socket —
// checks each one's outputs, and reports end-to-end metrics from untraced
// runs and per-layer metrics from a separate traced run.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash cmd/artemis-bench/run.sh -seed 1                  # all four workloads, each in its own child process
//	bash cmd/artemis-bench/run.sh -seed 1 -trace traces    # plus a traced run of each
//	bash cmd/artemis-bench/run.sh -runs 3 -o a.json        # three runs of each, saved with a host stamp
//	bash cmd/artemis-bench/run.sh -compare a.json b.json   # apply BENCHMARK.json's bounds
//	bash cmd/artemis-bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// With -workload it runs that one workload in process and prints, last, one
// JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupProbes is how many separate processes time the set-up; setup_s is
// their median.
const setupProbes = 7

// compileReps is how many times a traced run compiles the workload's specs;
// spec.compile_ms is the median.
const compileReps = 5

// defaultTraceDir is where --trace 1 writes spans.jsonl and cpu.pprof.
const defaultTraceDir = ".bench_build/trace"

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("artemis-bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload in this process: paper, chaos, fleet or ingest; empty runs all four, each in a child process")
		seed    = fs.Int64("seed", 1, "seed the workload inputs are made from")
		seconds = fs.Float64("seconds", 20, "length of each measured phase in seconds")
		trace   = fs.String("trace", "0", "traced run: a directory for spans.jsonl and cpu.pprof, 1 for "+defaultTraceDir+", 0 for none")
		out     = fs.String("o", "", "write every run and a host stamp to this JSON file")
		runs    = fs.Int("runs", 1, "run each workload this many times, alternating workloads")
		compare = fs.Bool("compare", false, "compare two results files: -compare old.json new.json (each may be a comma-separated list)")
		bjson   = fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json whose bounds -compare applies")
		probe   = fs.Bool("setup-probe", false, "set the workload up and exit (setup_s is timed over such processes)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := opts{workload: *name, seed: *seed, seconds: *seconds, probes: setupProbes}
	switch *trace {
	case "", "0":
	case "1":
		o.traceDir = defaultTraceDir
		if *name != "" {
			o.traceDir = filepath.Join(defaultTraceDir, *name)
		}
	default:
		o.traceDir = *trace
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			err = errors.New("-compare needs two results files")
			break
		}
		var regressed bool
		regressed, err = compareFiles(*bjson, fs.Arg(0), fs.Arg(1), stdout)
		if err == nil && regressed {
			return 1
		}
	case *probe:
		var w workload
		if w, err = workloadByName(o.workload); err == nil {
			_, err = w.setup(o.seed)
		}
	case o.workload != "":
		var r record
		if r, err = runWorkload(o); err == nil {
			err = emit(stdout, r)
			if err == nil && !r.Correct {
				return 1
			}
		}
	default:
		var ok bool
		ok, err = runAll(o, *runs, *out, stdout)
		if err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "artemis-bench:", err)
		return 1
	}
	return 0
}

// opts configures one workload run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	// traceDir, when set, makes the run a traced run writing there.
	traceDir string
	// probes is the number of set-up probe processes; 0 times the
	// in-process set-up instead.
	probes int
	// ops > 0 is the smoke-test mode: each phase runs this many ops and
	// percentiles are taken from however many samples there are.
	ops int
}

// limit returns the limit of a phase lasting frac of the run. forP95 makes
// it run long enough for latency_p95_ms to have minBeyond samples above
// it.
func (o opts) limit(frac float64, forP95 bool) limit {
	l := limit{dur: time.Duration(frac * o.seconds * float64(time.Second))}
	if o.ops > 0 {
		l.ops = max(1, int(frac*float64(o.ops)))
	}
	if forP95 {
		l.minOps = 20 * minBeyond
	}
	return l
}

// metricValue is one reported metric with its sample count.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n"`
}

// record is everything one workload run reports.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Digests   map[string]string      `json:"digests"`
	// Slowdown is the host-speed factor the host-time metrics were scaled
	// by, from Kernels calibration samples (see hostSpeed).
	Slowdown float64 `json:"slowdown"`
	Kernels  int     `json:"kernels"`
}

func newRecord(o opts, out outcome, phases ...phase) record {
	r := record{
		Workload: o.workload, Seed: o.seed, Traced: o.traceDir != "",
		Correct: len(out.failures) == 0, Failures: out.failures,
		Metrics: map[string]metricValue{}, Digests: out.digests,
	}
	for _, p := range phases {
		r.Attempted += p.attempted
		r.Failed += p.failed
	}
	return r
}

// set records a metric under the unit its definition gives.
func (r *record) set(defs []metricDef, name string, v float64, n int64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{v, d.unit, n}
			return
		}
	}
	panic("artemis-bench: undefined metric " + name)
}

func runWorkload(o opts) (record, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return record{}, err
	}
	if o.traceDir != "" {
		return runTraced(w, o)
	}
	return runUntraced(w, o)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, o opts) (record, error) {
	setup, err := probeSetup(o)
	if err != nil {
		return record{}, err
	}
	start := time.Now()
	b, err := w.setup(o.seed)
	if err != nil {
		return record{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if o.probes == 0 {
		setup = []float64{time.Since(start).Seconds()}
	}
	p, err := measure(b, o.limit(1, true), nil)
	out, finErr := b.finish()
	if err = errors.Join(err, finErr); err != nil {
		return record{}, fmt.Errorf("%s: %w", w.name, err)
	}
	r := newRecord(o, out, p)
	r.Slowdown, r.Kernels = p.slowdown, p.kernels
	beyond := minBeyond
	if o.ops > 0 {
		beyond = 0
	}
	p95, ok := percentile(sortedCopy(p.lat), 95, beyond)
	if !ok || !finite(p95) {
		return record{}, fmt.Errorf("%s: latency_p95_ms not reportable from %d ops (%d failed)", w.name, len(p.lat), p.failed)
	}
	r.set(endToEnd, "latency_p95_ms", p95/p.slowdown, int64(len(p.lat)))
	r.set(endToEnd, "setup_s", median(setup), int64(len(setup)))
	r.set(endToEnd, "peak_rss_mb", float64(procStatusKB("VmHWM"))/1024, 1)
	r.set(endToEnd, "items_per_s", float64(p.items)/p.wall.Seconds()*p.slowdown, p.items)
	r.set(endToEnd, "cpu_us_per_item", us(p.cpu)/float64(p.items)/p.slowdown, p.items)
	return r, nil
}

// probeSetup times the workload's set-up in separate processes, so
// once-per-process work counts in every sample.
func probeSetup(o opts) ([]float64, error) {
	if o.probes == 0 {
		return nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < o.probes; i++ {
		cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10), "-setup-probe")
		cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s set-up probe: %w", o.workload, err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// runTraced measures the per-layer metrics: an untraced quarter of the run,
// then three quarters with spans and a CPU profile.
func runTraced(w workload, o opts) (record, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return record{}, err
	}
	var compile []float64
	for i := 0; i < compileReps; i++ {
		start := time.Now()
		if err := w.compile(); err != nil {
			return record{}, fmt.Errorf("%s spec compile: %w", w.name, err)
		}
		compile = append(compile, ms(time.Since(start)))
	}
	b, err := w.setup(o.seed)
	if err != nil {
		return record{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	p0, err := measure(b, o.limit(0.25, false), nil)
	var p1 phase
	rec := newRecorder()
	profPath := filepath.Join(o.traceDir, "cpu.pprof")
	if err == nil {
		p1, err = measureProfiled(b, o.limit(0.75, false), rec, profPath)
	}
	out, finErr := b.finish()
	if err = errors.Join(err, finErr); err != nil {
		return record{}, fmt.Errorf("%s: %w", w.name, err)
	}
	shares, err := profileShares(profPath)
	if err != nil {
		return record{}, err
	}
	if err := rec.writeSpans(filepath.Join(o.traceDir, "spans.jsonl")); err != nil {
		return record{}, err
	}

	p50, _ := percentile(sortedCopy(p0.lat), 50, 0)
	layers := map[string]float64{
		"op.latency_p50_ms":         p50 / p0.slowdown,
		"spec.compile_ms":           median(compile),
		"core.run_us":               rec.spanUS("core.Run", 50),
		"core.run_p99_us":           rec.spanUS("core.Run", 99),
		"core.new_us":               rec.spanUS("core.New", 50),
		"core.release_us":           rec.spanUS("core.Release", 50),
		"fleetserver.ingest_us":     rec.spanUS("fleetserver.Ingest", 50),
		"http.post_ms":              rec.spanUS("http.post", 50) / 1000,
		"http.post_p99_ms":          rec.spanUS("http.post", 99) / 1000,
		"loadgen.lag_p99_ms":        rec.spanUS("loadgen.lag", 99) / 1000,
		"ledger.unattributed_share": rec.unattributed(),
		"alloc.allocs_per_op":       float64(p0.mallocs) / float64(len(p0.lat)),
		"alloc.bytes_per_op":        float64(p0.allocB) / float64(len(p0.lat)),
		"goruntime.gc_cycles_per_s": float64(p0.gcs) / p0.wall.Seconds(),
		"goruntime.heap_inuse_mb":   float64(p0.heapInuse) / (1 << 20),
		"tracing.overhead_ratio": (us(p1.cpu) / float64(p1.items) / p1.slowdown) /
			(us(p0.cpu) / float64(p0.items) / p0.slowdown),
	}
	for k, v := range shares {
		layers[k] = v
	}
	for k, v := range out.layers {
		layers[k] = v
	}
	r := newRecord(o, out, p0, p1)
	for _, d := range perLayer {
		r.set(perLayer, d.name, layers[d.name], int64(len(p1.lat)))
		delete(layers, d.name)
	}
	if len(layers) > 0 {
		return record{}, fmt.Errorf("%s: per-layer values with no definition: %v", w.name, layers)
	}
	return r, nil
}

// measureProfiled is measure under a CPU profile written to path.
func measureProfiled(b bench, lim limit, rec *recorder, path string) (phase, error) {
	f, err := os.Create(path)
	if err != nil {
		return phase{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return phase{}, err
	}
	p, err := measure(b, lim, rec)
	pprof.StopCPUProfile()
	return p, errors.Join(err, f.Close())
}

// emit prints a run: one line per metric, digests and failed checks, the
// full record on a "detail" line, and last the JSON result object.
func emit(w io.Writer, r record) error {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		v := r.Metrics[d.name]
		if !finite(v.Value) {
			return fmt.Errorf("%s: %s is not a finite number", r.Workload, d.name)
		}
		fmt.Fprintf(w, "%-7s %-38s %14.6g %-6s n=%d\n", r.Workload, d.name, v.Value, v.Unit, v.N)
		res.Metrics[d.name] = value{v.Value, v.Unit}
	}
	if !r.Traced {
		fmt.Fprintf(w, "%-7s host slowdown %.4f from %d calibration samples (host-time metrics above are scaled to slowdown 1)\n",
			r.Workload, r.Slowdown, r.Kernels)
	}
	for _, k := range sortedKeys(r.Digests) {
		fmt.Fprintf(w, "%-7s digest %-31s %s\n", r.Workload, k, r.Digests[k])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-7s FAILED %s\n", r.Workload, f)
	}
	detail, err := json.Marshal(r)
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "detail %s\n%s\n", detail, last)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// host is the stamp a results file carries.
type host struct {
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostStamp() host {
	h := host{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// results is the -o file.
type results struct {
	Host    host     `json:"host"`
	Seconds float64  `json:"seconds"`
	Runs    []record `json:"runs"`
}

// runAll runs every workload in its own child process, runs times over,
// then once traced per round when a trace directory is set. It reports
// whether every run passed its checks.
func runAll(o opts, runs int, outPath string, stdout io.Writer) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	h := hostStamp()
	fmt.Fprintf(stdout, "host    %s, %s, num_cpu %d, GOMAXPROCS %d\n", h.Go, h.CPU, h.NumCPU, h.GOMAXPROCS)
	res := results{Host: h, Seconds: o.seconds}
	ok := true
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			traces := []string{"0"}
			if o.traceDir != "" {
				traces = append(traces, filepath.Join(o.traceDir, w.name))
			}
			for _, t := range traces {
				r, err := runChild(exe, []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", t}, stdout)
				if err != nil {
					return false, err
				}
				ok = ok && r.Correct
				res.Runs = append(res.Runs, r)
			}
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	if ok {
		fmt.Fprintln(stdout, "all checks passed")
	}
	return ok, nil
}

// runChild runs one workload in a child process, forwards its metric lines
// and returns its record.
func runChild(exe string, args []string, stdout io.Writer) (record, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return record{}, err
	}
	if err := cmd.Start(); err != nil {
		return record{}, err
	}
	var r record
	var parseErr error
	found := false
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "detail "):
			parseErr = json.Unmarshal([]byte(line[len("detail "):]), &r)
			found = true
		case strings.HasPrefix(line, "{"):
		default:
			fmt.Fprintln(stdout, line)
		}
	}
	waitErr := cmd.Wait()
	if err := errors.Join(sc.Err(), parseErr); err != nil {
		return record{}, err
	}
	if !found {
		return record{}, fmt.Errorf("%v: no result (%v)", args, waitErr)
	}
	var exit *exec.ExitError
	if waitErr != nil && !(errors.As(waitErr, &exit) && !r.Correct) {
		return record{}, fmt.Errorf("%v: %w", args, waitErr)
	}
	return r, nil
}
