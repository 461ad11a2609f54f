package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/parallel"
)

// Oracle names, used as keys in reports.
const (
	OracleAtomicity   = "atomicity"   // committed control state is coherent, never torn
	OracleConsistency = "consistency" // app outputs consistent with the reference run
	OracleProgress    = "progress"    // completion within a bounded number of reboots
	OracleIdempotence = "idempotence" // re-executed work counted exactly once
)

// Outcome captures what one run left behind, for oracle comparison.
type Outcome struct {
	Completed     bool
	NonTerminated bool
	Reboots       int
	// Recoveries counts boots that found an event mid-delivery (ARTEMIS
	// only).
	Recoveries int
	// Decision counters from the runtime (ARTEMIS only); sensor campaigns
	// check detections against them.
	TaskSkips     int
	PathSkips     int
	PathRestarts  int
	PathCompletes int
	// Outputs holds the captured store values.
	Outputs map[string]float64
	// MonitorState maps machine name to its final state name.
	MonitorState map[string]string
	// Done and Delivered mirror the runtime control snapshot.
	Done      bool
	Delivered bool
}

// capture reads a finished framework into an Outcome.
func capture(f *core.Framework, rep *core.Report, keys []string) Outcome {
	out := Outcome{
		Completed:     rep.Completed,
		NonTerminated: rep.NonTerminated,
		Reboots:       rep.Reboots,
		Outputs:       make(map[string]float64, len(keys)),
		MonitorState:  map[string]string{},
	}
	for _, k := range keys {
		out.Outputs[k] = f.Store().Get(k)
	}
	if s := f.Monitors(); s != nil {
		for _, m := range s.Monitors() {
			out.MonitorState[m.Machine().Name] = m.State()
		}
	}
	if rt := f.Artemis(); rt != nil {
		snap := rt.Snapshot()
		out.Done, out.Delivered = snap.Done, snap.Delivered
		st := rt.Stats()
		out.Recoveries = st.Recoveries
		out.TaskSkips = st.TaskSkips
		out.PathSkips = st.PathSkips
		out.PathRestarts = st.PathRestarts
		out.PathCompletes = st.PathComplete
	}
	return out
}

// OracleFailure is one oracle's complaint about one crash point.
type OracleFailure struct {
	Oracle string
	Detail string
}

// PointResult is the verdict for one explored crash point.
type PointResult struct {
	// Point is the write index the power failure was injected after.
	Point int
	// Hash fingerprints the persistent state at the crash instant (only
	// collected when pruning is enabled).
	Hash     uint64
	Reboots  int
	Failures []OracleFailure
}

// ExploreReport summarises one crash-exploration sweep.
type ExploreReport struct {
	// Writes is the total number of persistent write operations (or, in
	// byte mode, bytes) the reference run performed — the size of the
	// crash-point space before windowing.
	Writes int
	// ByteMode records byte-granularity injection.
	ByteMode bool
	// WindowLo / WindowHi bound the explored point space when a Window
	// callback restricted it (1-based, inclusive); both zero when the
	// whole run was the space.
	WindowLo, WindowHi int
	// Explored, Pruned, and Failed partition the schedule: every write
	// index is either explored or pruned, and Failed counts explored
	// points with at least one oracle failure.
	Explored int
	Pruned   int
	Failed   int
	// WorstReboots is the highest reboot count any explored point needed.
	WorstReboots int
	// OraclePass / OracleFail count verdicts per oracle.
	OraclePass map[string]int
	OracleFail map[string]int
	// FailedPoints retains the full verdicts of failing points (bounded
	// by maxRetainedFailures).
	FailedPoints []PointResult
	// Ref is the never-crashed reference outcome.
	Ref Outcome
}

// maxRetainedFailures bounds FailedPoints so a systematically broken
// deployment does not produce a gigantic report.
const maxRetainedFailures = 32

// String renders the sweep summary deterministically.
func (r *ExploreReport) String() string {
	var b strings.Builder
	unit := "write"
	if r.ByteMode {
		unit = "byte"
	}
	space := r.Writes
	if r.WindowHi > 0 {
		space = r.WindowHi - r.WindowLo + 1
	}
	mode := "exhaustive"
	if r.Explored+r.Pruned < space {
		mode = "sampled"
	}
	fmt.Fprintf(&b, "crash:      %d %s points (%s: %d explored, %d pruned), %d failed\n",
		space, unit, mode, r.Explored, r.Pruned, r.Failed)
	if r.WindowHi > 0 {
		fmt.Fprintf(&b, "            window [%d, %d] of %d run %ss\n", r.WindowLo, r.WindowHi, r.Writes, unit)
	}
	fmt.Fprintf(&b, "            worst-case reboots %d, reference reboots %d\n", r.WorstReboots, r.Ref.Reboots)
	for _, name := range sortedKeys(r.OraclePass) {
		fmt.Fprintf(&b, "            oracle %-12s pass %d fail %d\n", name, r.OraclePass[name], r.OracleFail[name])
	}
	for i, p := range r.FailedPoints {
		if i >= 8 {
			fmt.Fprintf(&b, "            ... %d more failing points\n", len(r.FailedPoints)-i)
			break
		}
		for _, f := range p.Failures {
			fmt.Fprintf(&b, "            FAIL point %d [%s]: %s\n", p.Point, f.Oracle, f.Detail)
		}
	}
	return b.String()
}

// Explorer enumerates power failures at NVM-write granularity against a
// deployment built fresh for every crash point.
type Explorer struct {
	// Build constructs a fresh deployment. It must be deterministic: every
	// call yields a run that performs the identical persistent write
	// sequence when uninterrupted.
	Build func() (*core.Framework, error)

	// Keys are the store outputs captured into each Outcome.
	Keys []string

	// ExactKeys are outputs that must equal the reference exactly after
	// any single crash — counters whose divergence would prove lost or
	// doubled work (the idempotence oracle).
	ExactKeys []string

	// Invariant, when non-nil, is the app-level consistency oracle: it
	// checks a crashed run's outcome against the reference, allowing the
	// divergences the application's own semantics permit (a crash inside
	// a transmission may legitimately trip a timeliness skip). When nil,
	// every captured output must equal the reference exactly.
	Invariant func(ref, got Outcome) error

	// Budget, when positive, samples that many distinct crash points
	// instead of sweeping all of them — the CI smoke mode. The sample is
	// drawn from the seeded RNG, so it is reproducible.
	Budget int

	// Seed drives sampling (and nothing else; exploration is otherwise
	// deterministic).
	Seed int64

	// Prune skips crash points whose persistent image is byte-identical
	// to an already-explored point's. Recovery depends only on FRAM
	// contents, so such points recover identically — provided the
	// monitored properties are insensitive to the wall-clock differences
	// between the two points (time-based properties like maxDuration can
	// in principle distinguish them, so exhaustive verification should
	// leave pruning off).
	Prune bool

	// Bytes switches crash injection from write-operation granularity to
	// single-NVM-byte granularity: the point space becomes every byte the
	// reference run wrote, and each explored point reboots the device with
	// the memory holding exactly the first k bytes — torn multi-byte
	// writes included. This is how the swap oracle proves the activation
	// flip atomic: a selector flip is one byte, so only byte granularity
	// can land a failure on either side of it. Prune is ignored in byte
	// mode (fingerprints are taken per write operation).
	Bytes bool

	// Window, when non-nil, restricts the point space to a byte range of
	// the reference run, reported as absolute Memory BytesWritten marks
	// (e.g. ota.Manager.SwapWindow). Requires Bytes mode. ok = false
	// fails the sweep: a window caller expects the windowed activity to
	// have happened.
	Window func(f *core.Framework) (lo, hi int64, ok bool)

	// RebootSlack is how many reboots beyond reference+1 the progress
	// oracle tolerates; the injected failure itself accounts for the +1.
	RebootSlack int

	// PostCheck, when non-nil, runs extra oracle checks against the
	// recovered framework itself after the built-in four (e.g. telemetry
	// flight-ring well-formedness). Failures it returns must use oracle
	// names listed in PostOracles so pass/fail counting stays complete.
	PostCheck func(f *core.Framework, ref, got Outcome) []OracleFailure

	// PostOracles names the oracles PostCheck may report, adding them to
	// the per-oracle pass/fail tally. Empty when PostCheck is nil.
	PostOracles []string

	// Workers is how many crash points to explore concurrently. 0 or 1
	// explores serially. Each worker replays on its own freshly built
	// deployment, and point results are aggregated in schedule order, so
	// the report is byte-identical at any worker count. The schedule
	// itself (sampling, pruning) is decided before the fan-out.
	Workers int
}

// Run executes the sweep.
func (e *Explorer) Run() (*ExploreReport, error) {
	if e.Build == nil {
		return nil, fmt.Errorf("chaos: Explorer needs a Build function")
	}
	if e.Window != nil && !e.Bytes {
		return nil, fmt.Errorf("chaos: Explorer.Window requires Bytes mode")
	}

	// Reference run: count persistent writes and capture the baseline
	// outcome. With pruning enabled, fingerprint the persistent image
	// after every write so duplicate states can be skipped up front.
	f, err := e.Build()
	if err != nil {
		return nil, err
	}
	// Every early return hands the reference image back to the pool; the
	// success path releases it sooner, before the fan-out, and Release is
	// idempotent.
	defer f.Release()
	mem := f.MCU().Mem
	base := mem.Stats().Writes
	baseBytes := mem.Stats().BytesWritten
	var hashes []uint64
	if e.Prune && !e.Bytes {
		mem.SetWriteObserver(func() { hashes = append(hashes, mem.Hash()) })
	}
	rep, err := f.Run()
	mem.SetWriteObserver(nil)
	if err != nil {
		return nil, fmt.Errorf("chaos: reference run failed: %w", err)
	}
	if !rep.Completed {
		return nil, fmt.Errorf("chaos: reference run did not complete (reboots %d, non-terminated %v)",
			rep.Reboots, rep.NonTerminated)
	}
	writes := int(mem.Stats().Writes - base)
	if e.Bytes {
		writes = int(mem.Stats().BytesWritten - baseBytes)
	}
	if writes == 0 {
		return nil, fmt.Errorf("chaos: reference run performed no persistent writes")
	}
	ref := capture(f, rep, e.Keys)

	out := &ExploreReport{
		Writes:     writes,
		ByteMode:   e.Bytes,
		OraclePass: map[string]int{},
		OracleFail: map[string]int{},
		Ref:        ref,
	}

	// A window restricts the point space to the byte range the callback
	// reports — e.g. exactly the bytes a mid-run spec swap touched.
	lo, hi := 1, writes
	if e.Window != nil {
		wlo, whi, ok := e.Window(f)
		if !ok {
			return nil, fmt.Errorf("chaos: Window callback found no windowed activity in the reference run")
		}
		lo = int(wlo-baseBytes) + 1
		hi = int(whi - baseBytes)
		if lo < 1 {
			lo = 1
		}
		if hi > writes {
			hi = writes
		}
		if lo > hi {
			return nil, fmt.Errorf("chaos: Window [%d, %d] is empty", lo, hi)
		}
		out.WindowLo, out.WindowHi = lo, hi
	}

	// The reference run is fully captured; recycle its NVM image so the
	// sweep's first point reuses it instead of allocating a fresh one.
	f.Release()

	schedule, pruned := e.schedule(lo, hi, hashes)
	out.Pruned = pruned

	// Partition the fixed schedule across workers; each point replays on
	// its own deployment. Results come back in schedule order, so the
	// serial aggregation below (including which failures are retained)
	// does not depend on the worker count.
	results, err := parallel.Map(context.Background(), schedule, workerCount(e.Workers),
		func(_ context.Context, _ int, k int) (PointResult, error) {
			return e.explorePoint(k, ref)
		})
	if err != nil {
		return nil, err
	}

	for _, pr := range results {
		out.Explored++
		if pr.Reboots > out.WorstReboots {
			out.WorstReboots = pr.Reboots
		}
		for _, name := range baseOracles {
			tally(out, name, pr.Failures)
		}
		for _, name := range e.PostOracles {
			tally(out, name, pr.Failures)
		}
		if len(pr.Failures) > 0 {
			out.Failed++
			if len(out.FailedPoints) < maxRetainedFailures {
				out.FailedPoints = append(out.FailedPoints, pr)
			}
		}
	}
	return out, nil
}

// baseOracles are the four oracles judge evaluates on every explored point.
var baseOracles = [...]string{OracleAtomicity, OracleConsistency, OracleProgress, OracleIdempotence}

// tally counts one explored point's verdict for one oracle: a fail when any
// of the point's failures names it, a pass otherwise.
func tally(out *ExploreReport, oracle string, fails []OracleFailure) {
	for _, f := range fails {
		if f.Oracle == oracle {
			out.OracleFail[oracle]++
			return
		}
	}
	out.OraclePass[oracle]++
}

// schedule picks the crash points to explore: all of lo..hi, minus
// duplicate-state points when pruning, sampled down to Budget when set.
func (e *Explorer) schedule(lo, hi int, hashes []uint64) (points []int, pruned int) {
	candidates := make([]int, 0, hi-lo+1)
	if e.Prune && !e.Bytes && len(hashes) >= hi {
		seen := make(map[uint64]bool, hi-lo+1)
		for k := lo; k <= hi; k++ {
			h := hashes[k-1]
			if seen[h] {
				pruned++
				continue
			}
			seen[h] = true
			candidates = append(candidates, k)
		}
	} else {
		for k := lo; k <= hi; k++ {
			candidates = append(candidates, k)
		}
	}
	if e.Budget > 0 && e.Budget < len(candidates) {
		r := rng(e.Seed)
		perm := r.Perm(len(candidates))[:e.Budget]
		sort.Ints(perm)
		sampled := make([]int, 0, e.Budget)
		for _, i := range perm {
			sampled = append(sampled, candidates[i])
		}
		candidates = sampled
	}
	return candidates, pruned
}

// explorePoint injects one power failure after write k and evaluates the
// oracles on the recovered run.
func (e *Explorer) explorePoint(k int, ref Outcome) (PointResult, error) {
	f, err := e.Build()
	if err != nil {
		return PointResult{}, err
	}
	mem := f.MCU().Mem
	pr := PointResult{Point: k}
	clock := f.MCU().Clock
	if e.Bytes {
		mem.SetCrashHook(k, func() {
			panic(device.PowerFailure{At: clock.Now()})
		})
	} else {
		mem.SetWriteCrashHook(k, func() {
			if e.Prune {
				pr.Hash = mem.Hash()
			}
			panic(device.PowerFailure{At: clock.Now()})
		})
	}
	rep, err := f.Run()
	if err != nil {
		// A run-level error after an injected crash is an atomicity
		// violation surfaced as an application error, not a harness bug.
		pr.Failures = append(pr.Failures, OracleFailure{OracleAtomicity, err.Error()})
		f.Release()
		return pr, nil
	}
	got := capture(f, rep, e.Keys)
	pr.Reboots = got.Reboots
	pr.Failures = append(pr.Failures, e.judge(ref, got)...)
	if e.PostCheck != nil {
		pr.Failures = append(pr.Failures, e.PostCheck(f, ref, got)...)
	}
	// Everything oracle-relevant is copied out of the framework; hand the
	// NVM image back to the pool for the next point. This is what keeps an
	// exhaustive sweep from allocating one full FRAM image per crash point.
	f.Release()
	return pr, nil
}

// judge evaluates the four recovery oracles.
func (e *Explorer) judge(ref, got Outcome) []OracleFailure {
	var fails []OracleFailure

	// Progress: the run completes, and the single injected failure costs
	// at most one reboot (plus configured slack for intermittent
	// supplies, where the perturbed energy schedule can shift later
	// failures around).
	switch {
	case got.NonTerminated:
		fails = append(fails, OracleFailure{OracleProgress, "non-termination (reboot or step budget exhausted)"})
	case !got.Completed:
		fails = append(fails, OracleFailure{OracleProgress, "run did not complete"})
	case got.Reboots > ref.Reboots+1+e.RebootSlack:
		fails = append(fails, OracleFailure{OracleProgress,
			fmt.Sprintf("reboots %d exceed reference %d + injected 1 + slack %d", got.Reboots, ref.Reboots, e.RebootSlack)})
	}

	// Atomicity: the committed control state the recovery chain left
	// behind matches the never-crashed terminal state — the application is
	// marked done, the final event record's delivery bit agrees with the
	// reference (the terminal commit leaves it as-is, so "matches
	// reference" is the coherence test, not "true"), and every monitor
	// sits in a defined state.
	if got.Completed {
		if !got.Done {
			fails = append(fails, OracleFailure{OracleAtomicity, "runtime completed but control state not committed done"})
		}
		if got.Delivered != ref.Delivered {
			fails = append(fails, OracleFailure{OracleAtomicity,
				fmt.Sprintf("terminal event-delivered bit %v, reference %v", got.Delivered, ref.Delivered)})
		}
	}
	for _, name := range sortedKeys(got.MonitorState) {
		if strings.HasPrefix(got.MonitorState[name], "invalid(") {
			fails = append(fails, OracleFailure{OracleAtomicity,
				fmt.Sprintf("machine %s in %s", name, got.MonitorState[name])})
		}
	}

	// Idempotence: exactly-once counters match the reference bit for bit;
	// a lost or doubled task execution shows up here.
	for _, key := range e.ExactKeys {
		if got.Outputs[key] != ref.Outputs[key] {
			fails = append(fails, OracleFailure{OracleIdempotence,
				fmt.Sprintf("%s = %g, reference %g", key, got.Outputs[key], ref.Outputs[key])})
		}
	}

	// Consistency: the application-level invariant (or exact equality of
	// all captured outputs when none is given).
	if e.Invariant != nil {
		if err := e.Invariant(ref, got); err != nil {
			fails = append(fails, OracleFailure{OracleConsistency, err.Error()})
		}
	} else {
		for _, key := range e.Keys {
			if got.Outputs[key] != ref.Outputs[key] {
				fails = append(fails, OracleFailure{OracleConsistency,
					fmt.Sprintf("%s = %g, reference %g", key, got.Outputs[key], ref.Outputs[key])})
			}
		}
	}
	return fails
}
