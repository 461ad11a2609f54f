// Command benchjson runs the repository benchmark suite and emits a
// machine-readable baseline. It shells out to `go test -bench`, parses the
// standard benchmark output, and writes one JSON document with ns/op,
// B/op, allocs/op per benchmark plus the workers=1 vs workers=N wall-clock
// ratio for the parallel-executor benchmarks.
//
//	benchjson                          # full suite -> BENCH_8.json
//	benchjson -bench 'NVM' -o nvm.json # a subset, elsewhere
//	benchjson -benchtime 1x            # quick smoke (noisy numbers)
//
// It is also the regression gate between two committed baselines:
//
//	benchjson -compare BENCH_8.json new.json -max-regress 10%
//
// exits non-zero if any benchmark present in both files regressed by more
// than the threshold in ns/op or allocs/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Report is the emitted document. The schema field names the layout so a
// later PR can evolve it without guessing.
type Report struct {
	Schema     string      `json:"schema"`
	Env        Env         `json:"env"`
	BenchTime  string      `json:"benchtime"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Speedups   []Speedup   `json:"speedups,omitempty"`
}

// Env records where the numbers came from; single-core CI and a developer
// laptop are not comparable.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Benchmark is one parsed result line. Extra holds custom metrics a
// benchmark published via b.ReportMetric (e.g. BenchmarkFleetSteps'
// device-steps/sec), keyed by unit; they are recorded in the baseline but
// never gated — only ns/op and allocs/op fail a -compare.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Speedup compares a workers=N sub-benchmark against its workers=1
// sibling: Ratio > 1 means the parallel run was faster. When the host
// cannot actually run N workers in parallel (N > GOMAXPROCS — e.g. a
// single-core CI runner), the ratio measures time-slicing overhead, not
// parallel speedup, and Note says so.
type Speedup struct {
	Benchmark string  `json:"benchmark"`
	Workers   int     `json:"workers"`
	Ratio     float64 `json:"ratio_vs_workers_1"`
	Note      string  `json:"note,omitempty"`
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		bench      = fs.String("bench", "ExhaustiveSweep|FlipCampaign|FleetSteps|FleetServer|NVMWrite|NVMHash|NVMRehash|Commit|SingleRun|OcelotRun|PersistentMonitor|CompiledMonitor|SetDeliver|SpecCompile|Telemetry|SpecSwap|Deploy", "benchmark filter passed to go test -bench")
		benchtime  = fs.String("benchtime", "", "passed to go test -benchtime; empty = the go test default")
		pkg        = fs.String("pkg", ".", "package to benchmark")
		out        = fs.String("o", "BENCH_8.json", "output path; - = stdout")
		compareIt  = fs.Bool("compare", false, "compare two baseline files (old new) instead of running benchmarks")
		maxRegress = fs.String("max-regress", "10%", "with -compare: tolerated ns/op and allocs/op growth before failing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *compareIt {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two files: benchjson -compare old.json new.json")
		}
		tol, err := parsePercent(*maxRegress)
		if err != nil {
			return fmt.Errorf("-max-regress: %w", err)
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), tol, w)
	}

	goArgs := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem"}
	if *benchtime != "" {
		goArgs = append(goArgs, "-benchtime", *benchtime)
	}
	goArgs = append(goArgs, *pkg)
	cmd := exec.Command("go", goArgs...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go %s: %w\n%s", strings.Join(goArgs, " "), err, raw)
	}

	rep, err := parse(string(raw))
	if err != nil {
		return err
	}
	rep.BenchTime = *benchtime
	if rep.BenchTime == "" {
		rep.BenchTime = "1s"
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = w.Write(enc)
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
	return nil
}

// parsePercent accepts "10%", "10", or "0.1" (all meaning 10%).
func parsePercent(s string) (float64, error) {
	trimmed, hadSign := strings.CutSuffix(strings.TrimSpace(s), "%")
	v, err := strconv.ParseFloat(trimmed, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a percentage", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("threshold %q is negative", s)
	}
	if !hadSign && v < 1 {
		return v, nil // already a fraction, e.g. 0.1
	}
	return v / 100, nil
}

func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &rep, nil
}

func compareFiles(oldPath, newPath string, tol float64, w io.Writer) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	regressions := compare(oldRep, newRep, tol, w)
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%:\n  %s",
			len(regressions), tol*100, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "no regressions beyond %.0f%% (%s -> %s)\n", tol*100, oldPath, newPath)
	return nil
}

// compare prints a per-benchmark delta table and returns the list of
// regressions beyond tol. Benchmarks present in only one file are reported
// but never fail the gate — suites grow and shrink across PRs. The table
// ends with the geometric-mean ns/op speedup over the shared benchmarks,
// the one-number summary of whether the change made the suite faster.
func compare(oldRep, newRep *Report, tol float64, w io.Writer) []string {
	oldBy := map[string]Benchmark{}
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	var regressions []string
	seen := map[string]bool{}
	var logSum float64
	var shared int
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "%-40s new benchmark (no baseline)\n", nb.Name)
			continue
		}
		seen[nb.Name] = true
		nsDelta := ratioDelta(ob.NsPerOp, nb.NsPerOp)
		allocDelta := ratioDelta(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp))
		fmt.Fprintf(w, "%-40s ns/op %12.0f -> %12.0f (%+6.1f%%)   allocs/op %8d -> %8d (%+6.1f%%)\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, nsDelta*100,
			ob.AllocsPerOp, nb.AllocsPerOp, allocDelta*100)
		if ob.NsPerOp > 0 && nb.NsPerOp > 0 {
			logSum += math.Log(ob.NsPerOp / nb.NsPerOp)
			shared++
		}
		if nsDelta > tol {
			regressions = append(regressions,
				fmt.Sprintf("%s: ns/op %.0f -> %.0f (%+.1f%%)", nb.Name, ob.NsPerOp, nb.NsPerOp, nsDelta*100))
		}
		if allocDelta > tol {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %d -> %d (%+.1f%%)", nb.Name, ob.AllocsPerOp, nb.AllocsPerOp, allocDelta*100))
		}
	}
	for _, ob := range oldRep.Benchmarks {
		if !seen[ob.Name] {
			fmt.Fprintf(w, "%-40s dropped from suite (was %.0f ns/op)\n", ob.Name, ob.NsPerOp)
		}
	}
	if shared > 0 {
		fmt.Fprintf(w, "geomean ns/op speedup: %.3fx over %d shared benchmark(s) (>1 = new is faster)\n",
			math.Exp(logSum/float64(shared)), shared)
	}
	return regressions
}

// ratioDelta is the fractional growth from old to cur: +0.10 = 10% slower
// or 10% more allocations. A zero baseline regresses on any increase
// (reported as +100%) — going from 0 allocs/op to any is always a finding.
func ratioDelta(old, cur float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return (cur - old) / old
}

// resultLine matches standard `go test -benchmem` output, e.g.
//
//	BenchmarkNVMWrite-4   13417772   88.78 ns/op   0 B/op   0 allocs/op
//
// The -4 GOMAXPROCS suffix is absent on single-proc runs. Custom metrics
// published via b.ReportMetric land between ns/op and B/op:
//
//	BenchmarkFleetSteps/workers=1   742   1480000 ns/op   9752 device-steps/sec   173000 B/op   2884 allocs/op
//
// Group 4 captures that span for extraMetric to pick apart.
var resultLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op((?:\s+\S+ \S+?)*?)\s+(\d+) B/op\s+(\d+) allocs/op`)

// extraMetric splits one "value unit" custom-metric pair out of
// resultLine's group 4.
var extraMetric = regexp.MustCompile(`([\d.eE+-]+) (\S+)`)

// workersSub extracts the worker count from a sub-benchmark name like
// BenchmarkExhaustiveSweep/workers=2.
var workersSub = regexp.MustCompile(`^(Benchmark[^/]+)/workers=(\d+)$`)

func parse(out string) (*Report, error) {
	rep := &Report{
		Schema: "artemis-go/bench/v1",
		Env: Env{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.Env.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := resultLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		var extra map[string]float64
		for _, em := range extraMetric.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(em[1], 64)
			if err != nil {
				continue
			}
			if extra == nil {
				extra = map[string]float64{}
			}
			extra[em[2]] = v
		}
		bytes, _ := strconv.ParseInt(m[5], 10, 64)
		allocs, _ := strconv.ParseInt(m[6], 10, 64)
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{
			Name:        strings.TrimPrefix(m[1], "Benchmark"),
			Iterations:  iters,
			NsPerOp:     ns,
			BytesPerOp:  bytes,
			AllocsPerOp: allocs,
			Extra:       extra,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results in go test output:\n%s", out)
	}
	rep.Speedups = speedups(rep.Benchmarks, rep.Env.GOMAXPROCS)
	return rep, nil
}

func speedups(benches []Benchmark, maxProcs int) []Speedup {
	serial := map[string]float64{}
	for _, b := range benches {
		if m := workersSub.FindStringSubmatch("Benchmark" + b.Name); m != nil && m[2] == "1" {
			serial[strings.TrimPrefix(m[1], "Benchmark")] = b.NsPerOp
		}
	}
	var out []Speedup
	for _, b := range benches {
		m := workersSub.FindStringSubmatch("Benchmark" + b.Name)
		if m == nil || m[2] == "1" {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		base, ok := serial[name]
		if !ok || b.NsPerOp == 0 {
			continue
		}
		workers, _ := strconv.Atoi(m[2])
		s := Speedup{
			Benchmark: name,
			Workers:   workers,
			Ratio:     base / b.NsPerOp,
		}
		if workers > maxProcs {
			s.Note = fmt.Sprintf(
				"workers=%d exceeds GOMAXPROCS=%d: ratio measures goroutine time-slicing, not parallel speedup",
				workers, maxProcs)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benchmark != out[j].Benchmark {
			return out[i].Benchmark < out[j].Benchmark
		}
		return out[i].Workers < out[j].Workers
	})
	return out
}
