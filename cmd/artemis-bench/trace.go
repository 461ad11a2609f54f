package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// child is one span inside an op. parent indexes the op's children (in
// either direction); -1 means the op's root span.
type child struct {
	name       string
	parent     int
	start, end time.Time
}

// spanLine is one line of spans.jsonl. Times are nanoseconds since the
// traced phase began; parent is 0 for an op's root span.
type spanLine struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg accumulates every span of one name.
type spanAgg struct {
	total time.Duration
	durs  []float64 // microseconds
}

// spans.jsonl keeps the first maxFullOps ops in full, stopping early once
// maxFullSpans lines are kept (a chaos sweep has thousands of spans); every
// op feeds the aggregates.
const (
	maxFullOps   = 10000
	maxFullSpans = 100000
)

// recorder keeps the spans the benchmark records around its calls into the
// system. A nil *recorder records nothing, which is how untraced runs call
// the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	ops   int64
	ids   int64
	full  []spanLine
	agg   map[string]*spanAgg
	opDur time.Duration
	// kidDur is the root-level child time, divided by the op's width (the
	// number of goroutines its children run on).
	kidDur float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), agg: map[string]*spanAgg{}}
}

// op records one op: its root span and its children.
func (r *recorder) op(name string, start, end time.Time, width int, kids []child) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	keep := r.ops <= maxFullOps && len(r.full) < maxFullSpans
	root := r.add(name, start, end)
	ids := make([]int64, len(kids))
	for i, k := range kids {
		ids[i] = r.add(k.name, k.start, k.end)
	}
	if keep {
		r.full = append(r.full, r.line(root, 0, name, start, end))
	}
	r.opDur += end.Sub(start)
	var direct time.Duration
	for i, k := range kids {
		parent := root
		if k.parent >= 0 {
			parent = ids[k.parent]
		} else {
			direct += k.end.Sub(k.start)
		}
		if keep {
			r.full = append(r.full, r.line(ids[i], parent, k.name, k.start, k.end))
		}
	}
	r.kidDur += float64(direct) / float64(width)
}

func (r *recorder) add(name string, start, end time.Time) int64 {
	a := r.agg[name]
	if a == nil {
		a = &spanAgg{}
		r.agg[name] = a
	}
	d := end.Sub(start)
	a.total += d
	a.durs = append(a.durs, us(d))
	r.ids++
	return r.ids
}

func (r *recorder) line(id, parent int64, name string, start, end time.Time) spanLine {
	return spanLine{ID: id, Op: r.ops, Parent: parent, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
}

// spanUS returns the p-th percentile duration of the named span in
// microseconds, or 0 when it was never recorded or has too few samples.
func (r *recorder) spanUS(name string, p float64) float64 {
	a := r.agg[name]
	if a == nil {
		return 0
	}
	v, _ := percentile(sortedCopy(a.durs), p, 0)
	return v
}

// unattributed is 1 - child-span time / op time over every op.
func (r *recorder) unattributed() float64 {
	if r.opDur == 0 {
		return 0
	}
	return 1 - r.kidDur/float64(r.opDur)
}

// writeSpans writes the kept ops as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.full {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// modulePrefix is stripped from profile frames before classifying them.
const modulePrefix = "github.com/tinysystems/artemis-go/"

// cpuLayers maps a leaf frame's package to its cpu.* metric. Lookup walks
// up the package path, so the most specific entry wins. Socket syscalls
// count as the HTTP boundary: only the ingest workload makes them.
var cpuLayers = map[string]string{
	"internal/nvm":             "cpu.nvm",
	"internal/monitor":         "cpu.monitor",
	"internal/codegen":         "cpu.codegen",
	"internal/ir":              "cpu.ir",
	"internal/artemis":         "cpu.artemis",
	"internal/mayfly":          "cpu.mayfly",
	"internal/task":            "cpu.task",
	"internal/device":          "cpu.device",
	"internal/energy":          "cpu.energy",
	"internal/core":            "cpu.core",
	"internal/examplespecs":    "cpu.core",
	"internal/spec":            "cpu.spec_transform",
	"internal/transform":       "cpu.spec_transform",
	"internal/fleet":           "cpu.fleet",
	"internal/parallel":        "cpu.parallel",
	"internal/fleetserver":     "cpu.fleetserver",
	"internal/chaos":           "cpu.chaos",
	"internal/correctness":     "cpu.chaos",
	"net":                      "cpu.nethttp",
	"internal/poll":            "cpu.nethttp",
	"syscall":                  "cpu.nethttp",
	"internal/runtime/syscall": "cpu.nethttp",
	"runtime/internal/syscall": "cpu.nethttp",
	"encoding/json":            "cpu.json",
}

// cumFuncs maps each cum.* metric to the functions whose presence on a
// stack counts the sample.
var cumFuncs = map[string][]string{
	"cum.nvm_commit":          {"internal/nvm.(*Committed).Commit", "internal/nvm.(*CommitGroup).Commit"},
	"cum.monitor_deliver":     {"internal/monitor.(*Set).Deliver"},
	"cum.codegen_step":        {"internal/codegen.(*Machine).StepStaged"},
	"cum.inject_event":        {"internal/core.(*Framework).InjectEvent"},
	"cum.framework_run":       {"internal/core.(*Framework).Run"},
	"cum.core_new":            {"internal/core.New"},
	"cum.fleetserver_postrun": {"internal/fleetserver.(*Server).postRun"},
}

// isGCFrame reports whether a runtime frame belongs to the garbage
// collector (marking, sweeping, scavenging, assists, write barriers).
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.sweepone", "runtime.scanobject", "runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.wbBuf"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// framePackage returns the package path of a fully qualified function name
// (type arguments may hold dots and slashes, so they are cut first).
func framePackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isRuntime reports whether a leaf frame is the Go runtime: its packages,
// the internal packages only it uses, and assembly routines, which have no
// package qualifier (aeshashbody, memeqbody).
func isRuntime(fn, pkg string) bool {
	return !strings.Contains(fn, ".") || pkg == "runtime" || pkg == "internal/abi" || pkg == "internal/bytealg" ||
		strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// leafLayer names the cpu.* metric for a sample from its stack, leaf first.
func leafLayer(stack []string) string {
	pkg := framePackage(stack[0])
	for p := pkg; p != ""; {
		if l, ok := cpuLayers[p]; ok {
			return l
		}
		i := strings.LastIndex(p, "/")
		if i < 0 {
			break
		}
		p = p[:i]
	}
	if isRuntime(stack[0], pkg) {
		for _, fn := range stack {
			if isGCFrame(fn) {
				return "cpu.goruntime_gc"
			}
		}
		return "cpu.goruntime_other"
	}
	return "cpu.other"
}

// calibrationFrame marks the host-speed kernel and its forced GC, which the
// aggregation leaves out: they are the benchmark's, not the system's.
const calibrationFrame = "main.(*hostSpeed).check"

// aggregateTraces reads `go tool pprof -traces` output and returns every
// cpu.* and cum.* metric as a share of the total sample weight.
func aggregateTraces(r io.Reader) (map[string]float64, error) {
	var (
		total   float64
		weights = map[string]float64{}
		stack   []string
		weight  float64
		started bool
		err     error
	)
	flush := func() {
		for _, fr := range stack {
			if fr == calibrationFrame {
				stack = stack[:0]
			}
		}
		if len(stack) == 0 {
			return
		}
		total += weight
		weights[leafLayer(stack)] += weight
		for name, fns := range cumFuncs {
		frames:
			for _, fr := range stack {
				for _, fn := range fns {
					if fr == fn {
						weights[name] += weight
						break frames
					}
				}
			}
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		frame := strings.TrimSpace(line)
		if !started || frame == "" {
			continue
		}
		if len(stack) == 0 {
			// The first line of a sample: its weight, then the leaf frame.
			w, rest, ok := strings.Cut(frame, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			if weight, err = parseWeight(w); err != nil {
				return nil, err
			}
			frame = strings.TrimSpace(rest)
		}
		frame = strings.TrimSuffix(frame, " (inline)")
		stack = append(stack, strings.TrimPrefix(frame, modulePrefix))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	out := map[string]float64{}
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "cpu.") || strings.HasPrefix(m.name, "cum.") {
			out[m.name] = 0
			if total > 0 {
				out[m.name] = weights[m.name] / total
			}
		}
	}
	return out, nil
}

// parseWeight parses a pprof duration such as "10ms" or "1.20s" into
// seconds.
func parseWeight(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}, {"mins", 60}, {"hrs", 3600}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				continue
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("pprof traces: unknown sample weight %q", s)
}

// profileShares runs `go tool pprof -traces` on a CPU profile and aggregates
// it.
func profileShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares, aggErr := aggregateTraces(out)
	if aggErr != nil {
		// Drain so the tool can exit before Wait.
		_, _ = io.Copy(io.Discard, out)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return shares, aggErr
}
