package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/integrity"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/parallel"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
)

// RadioCampaign exercises the remote-monitor deployment over a lossy,
// duplicating radio channel: several seeded runs check that the retry /
// backoff / degrade-to-local machinery neither loses nor double-counts
// events.
type RadioCampaign struct {
	// Build constructs a fresh deployment wired to the given link; it must
	// enable remote monitors.
	Build func(link monitor.Link) (*core.Framework, error)

	// Keys are the store outputs captured into each Outcome. Every one
	// must equal the perfect-link reference after any lossy run.
	Keys []string

	// Runs is how many seeded lossy runs to perform (default 5).
	Runs int

	// Seed derives each run's link seed.
	Seed int64

	// DropProb / DupProb parameterise the channel.
	DropProb float64
	DupProb  float64

	// Workers fans the lossy runs across goroutines (0 or 1 = serial).
	// Each run's link seed is derived from its index before the fan-out,
	// so concurrency never changes which faults are sampled.
	Workers int
}

// RadioRunResult is the verdict of one lossy run.
type RadioRunResult struct {
	LinkSeed   int64
	Completed  bool
	Reboots    int
	Retries    int
	Degraded   int
	Duplicates int
	Drops      int
	Failure    string // empty = pass
}

// RadioReport summarises a radio campaign.
type RadioReport struct {
	Runs   int
	Failed int
	// Totals across runs.
	Retries    int
	Degraded   int
	Duplicates int
	Drops      int
	Results    []RadioRunResult
	Ref        Outcome
}

// String renders the campaign summary deterministically.
func (r *RadioReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "radio:      %d lossy runs, %d failed\n", r.Runs, r.Failed)
	fmt.Fprintf(&b, "            drops %d, retries %d, duplicates %d, degraded-to-local %d\n",
		r.Drops, r.Retries, r.Duplicates, r.Degraded)
	for _, res := range r.Results {
		if res.Failure != "" {
			fmt.Fprintf(&b, "            FAIL seed %d: %s\n", res.LinkSeed, res.Failure)
		}
	}
	return b.String()
}

// NewRadioCampaign builds the lossy-radio campaign for one example case on
// continuous power: its monitors run remote over a link that drops 30% and
// duplicates 20% of exchanges. Delivery loss must degrade to local
// evaluation, never lose or double-count an event, so every store output
// must equal the perfect-link run's.
func NewRadioCampaign(c examplespecs.Case, seed int64, runs int) *RadioCampaign {
	d := examplespecs.NewDeployer(c)
	return &RadioCampaign{
		Build: func(link monitor.Link) (*core.Framework, error) {
			return d.Deploy(continuous(func(cfg *core.Config) {
				cfg.RemoteMonitors = true
				cfg.RadioLink = link
			}))
		},
		Keys:     storeKeys(d),
		Runs:     runs,
		Seed:     seed,
		DropProb: 0.3,
		DupProb:  0.2,
	}
}

// Run executes the campaign: one perfect-link reference, then Runs lossy
// runs with derived seeds.
func (c *RadioCampaign) Run() (*RadioReport, error) {
	if c.Build == nil {
		return nil, fmt.Errorf("chaos: RadioCampaign needs a Build function")
	}
	runs := c.Runs
	if runs <= 0 {
		runs = 5
	}

	f, err := c.Build(nil)
	if err != nil {
		return nil, err
	}
	rep, err := f.Run()
	if err != nil {
		return nil, fmt.Errorf("chaos: radio reference run failed: %w", err)
	}
	if !rep.Completed {
		return nil, fmt.Errorf("chaos: radio reference run did not complete")
	}
	ref := capture(f, rep, c.Keys)

	out := &RadioReport{Runs: runs, Ref: ref}
	indices := make([]int, runs)
	for i := range indices {
		indices[i] = i
	}
	results, err := parallel.Map(context.Background(), indices, workerCount(c.Workers),
		func(_ context.Context, _ int, i int) (RadioRunResult, error) {
			// Distinct, reproducible seed per run index — independent of
			// which worker executes the run.
			linkSeed := c.Seed*7919 + int64(i) + 1
			link := NewLossyLink(linkSeed, c.DropProb, c.DupProb)
			f, err := c.Build(link)
			if err != nil {
				return RadioRunResult{}, err
			}
			res := RadioRunResult{LinkSeed: linkSeed}
			rep, err := f.Run()
			rem := f.Remote()
			if rem == nil {
				return RadioRunResult{}, fmt.Errorf("chaos: RadioCampaign build did not deploy remote monitors")
			}
			res.Retries, res.Degraded, res.Duplicates = rem.Retries(), rem.Degraded(), rem.Duplicates()
			res.Drops = link.Drops()
			switch {
			case err != nil:
				res.Failure = err.Error()
			case !rep.Completed:
				res.Failure = "run did not complete"
			default:
				res.Completed = true
				res.Reboots = rep.Reboots
				res.Failure = diverged(c.Keys, ref, capture(f, rep, c.Keys))
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if res.Failure != "" {
			out.Failed++
		}
		out.Retries += res.Retries
		out.Degraded += res.Degraded
		out.Duplicates += res.Duplicates
		out.Drops += res.Drops
		out.Results = append(out.Results, res)
	}
	return out, nil
}

// SensorCase pairs one sensor fault with the behaviour the monitors are
// expected to show under it (detection for harmful faults, business as
// usual for benign ones).
type SensorCase struct {
	Fault  SensorFault
	Expect func(got Outcome) error
}

// SensorCampaign runs the deployment once per sensor-fault case.
type SensorCampaign struct {
	// Build constructs a fresh deployment with the fault wrapped around
	// the application's sensor source.
	Build func(f SensorFault) (*core.Framework, error)
	Keys  []string
	Cases []SensorCase
	// Workers fans the cases across goroutines (0 or 1 = serial); results
	// stay in case order.
	Workers int
}

// SensorCaseResult is the verdict of one fault case.
type SensorCaseResult struct {
	Fault     string
	Completed bool
	// Detections summarises the monitor reactions the fault provoked.
	PathCompletes int
	PathRestarts  int
	PathSkips     int
	TaskSkips     int
	Failure       string // empty = pass
}

// SensorReport summarises a sensor campaign.
type SensorReport struct {
	Cases   int
	Failed  int
	Results []SensorCaseResult
}

// String renders the campaign summary deterministically.
func (r *SensorReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sensor:     %d fault cases, %d failed\n", r.Cases, r.Failed)
	for _, res := range r.Results {
		verdict := "ok"
		if res.Failure != "" {
			verdict = "FAIL: " + res.Failure
		}
		fmt.Fprintf(&b, "            %-10s completes=%d restarts=%d skips=%d/%d  %s\n",
			res.Fault, res.PathCompletes, res.PathRestarts, res.PathSkips, res.TaskSkips, verdict)
	}
	return b.String()
}

// Run executes every case.
func (c *SensorCampaign) Run() (*SensorReport, error) {
	if c.Build == nil {
		return nil, fmt.Errorf("chaos: SensorCampaign needs a Build function")
	}
	out := &SensorReport{Cases: len(c.Cases)}
	results, err := parallel.Map(context.Background(), c.Cases, workerCount(c.Workers),
		func(_ context.Context, _ int, cs SensorCase) (SensorCaseResult, error) {
			f, err := c.Build(cs.Fault)
			if err != nil {
				return SensorCaseResult{}, err
			}
			res := SensorCaseResult{Fault: cs.Fault.Name()}
			rep, err := f.Run()
			if err != nil {
				res.Failure = err.Error()
			} else {
				got := capture(f, rep, c.Keys)
				res.Completed = got.Completed
				res.PathCompletes = got.PathCompletes
				res.PathRestarts = got.PathRestarts
				res.PathSkips = got.PathSkips
				res.TaskSkips = got.TaskSkips
				if cs.Expect != nil {
					if eerr := cs.Expect(got); eerr != nil {
						res.Failure = eerr.Error()
					}
				}
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if res.Failure != "" {
			out.Failed++
		}
		out.Results = append(out.Results, res)
	}
	return out, nil
}

// FlipCampaign injects NVM soft errors (bit flips) mid-run and classifies
// the outcomes. A flip may be masked (outputs identical), degrade data
// (outputs differ but the run completes), be recovered (the integrity
// layer repaired it and the run finished with reference-identical outputs),
// be detected (the runtime reports a typed error / non-termination), or be
// detected-unrecoverable (quarantined: flagged but beyond repair); an
// uncontrolled panic counts as a campaign failure.
type FlipCampaign struct {
	Build func() (*core.Framework, error)
	// Keys are the store outputs a masked flip leaves equal to the
	// reference.
	Keys []string
	// Runs is how many flip runs to perform (default 5).
	Runs int
	Seed int64
	// WithIntegrity records that Build enables the self-healing layer, so
	// the report says which configuration it measured.
	WithIntegrity bool
	// Workers fans the flip runs across goroutines (0 or 1 = serial).
	// Every run's flip point and flip seed are drawn sequentially from the
	// campaign RNG before the fan-out, so the sampled faults — and the
	// report — are identical at any worker count.
	Workers int
}

// FlipReport summarises a bit-flip campaign.
type FlipReport struct {
	Runs          int
	Masked        int // outputs identical to the reference, no repair needed
	Recovered     int // integrity layer repaired the flip; run completed
	Degraded      int // completed with diverging outputs
	Detected      int // runtime reported an error or non-termination
	Unrecoverable int // detected but beyond repair (quarantine / ErrCorrupt)
	Crashed       int // uncontrolled panic — a robustness failure
	CrashLogs     []string
	// FlightDumps holds the flight-recorder dump of every unrecoverable
	// outcome, in run order — the causal history a post-mortem boot would
	// read from NVM. Populated only when Build enables a flight recorder.
	FlightDumps []string
	// WithIntegrity echoes the campaign configuration.
	WithIntegrity bool
	// Integrity aggregates the self-healing layer's counters across runs.
	Integrity integrity.Stats
}

// String renders the campaign summary deterministically.
func (r *FlipReport) String() string {
	var b strings.Builder
	mode := "integrity off"
	if r.WithIntegrity {
		mode = "integrity on"
	}
	fmt.Fprintf(&b, "bitflip:    %d flips (%s): %d masked, %d recovered, %d degraded, %d detected, %d unrecoverable, %d crashed\n",
		r.Runs, mode, r.Masked, r.Recovered, r.Degraded, r.Detected, r.Unrecoverable, r.Crashed)
	if r.WithIntegrity {
		fmt.Fprintf(&b, "            repairs: %d checks, %d corruptions, %d shadow restores, %d resets, %d quarantines\n",
			r.Integrity.Checks, r.Integrity.Corruptions, r.Integrity.ShadowRestores,
			r.Integrity.Resets, r.Integrity.Quarantines)
	}
	for _, l := range r.CrashLogs {
		fmt.Fprintf(&b, "            CRASH %s\n", l)
	}
	for i, d := range r.FlightDumps {
		fmt.Fprintf(&b, "            unrecoverable #%d %s", i+1,
			strings.ReplaceAll(d, "\n  ", "\n              "))
	}
	return b.String()
}

// NewFlipCampaign builds the NVM soft-error campaign for one example case:
// random single bit flips into any owner's persistent allocations mid-run,
// on an intermittent supply (800 µJ boots, 1 s recharge) — a flipped FRAM
// bit only becomes visible when a reboot reloads the committed image, so
// the run must actually reboot. The runtime must never crash uncontrolled,
// with or without the integrity layer; with it, flips that land in a
// committed image are repaired from the shadow (Recovered) or flagged
// beyond repair (Unrecoverable). flightDepth > 0 additionally enables
// telemetry with an NVM flight recorder of that depth, so every
// Unrecoverable verdict carries the device's last persisted events in the
// report.
func NewFlipCampaign(c examplespecs.Case, seed int64, runs int, withIntegrity bool, flightDepth int) *FlipCampaign {
	d := examplespecs.NewDeployer(c).With(func(cfg *core.Config) {
		cfg.Supply = core.SupplyConfig{
			Kind:     core.SupplyFixedDelay,
			BudgetUJ: 800,
			Delay:    simclock.Second,
		}
		if withIntegrity {
			integrityConfig(50 * simclock.Millisecond)(cfg)
		}
		if flightDepth > 0 {
			cfg.Telemetry = true
			cfg.FlightDepth = flightDepth
		}
	})
	return &FlipCampaign{
		Build:         func() (*core.Framework, error) { return d.Deploy(nil) },
		Keys:          storeKeys(d),
		Runs:          runs,
		Seed:          seed,
		WithIntegrity: withIntegrity,
	}
}

// Run executes the campaign: one clean reference run to size the write
// sequence, then Runs runs with one random flip each, injected at a
// random point of the write sequence.
func (c *FlipCampaign) Run() (*FlipReport, error) {
	if c.Build == nil {
		return nil, fmt.Errorf("chaos: FlipCampaign needs a Build function")
	}
	runs := c.Runs
	if runs <= 0 {
		runs = 5
	}
	f, err := c.Build()
	if err != nil {
		return nil, err
	}
	base := f.MCU().Mem.Stats().Writes
	rep, err := f.Run()
	if err != nil || !rep.Completed {
		return nil, fmt.Errorf("chaos: flip reference run did not complete (%v)", err)
	}
	writes := int(f.MCU().Mem.Stats().Writes - base)
	ref := capture(f, rep, c.Keys)
	f.Release()

	// Draw every run's fault up front, sequentially, from the campaign
	// RNG: the sampled (point, seed) sequence is then a function of the
	// campaign seed alone, never of which worker gets which run.
	type flipDraw struct {
		point    int
		flipSeed int64
	}
	r := rng(c.Seed)
	draws := make([]flipDraw, runs)
	for i := range draws {
		draws[i] = flipDraw{point: 1 + r.Intn(writes), flipSeed: r.Int63()}
	}

	// flipVerdict carries one run's classification back to the in-order
	// aggregation below.
	type flipVerdict struct {
		ist      integrity.Stats
		crashed  bool
		crashLog string
		unrec    bool
		flight   string
		detected bool
		recov    bool
		masked   bool
	}
	verdicts, err := parallel.Map(context.Background(), draws, workerCount(c.Workers),
		func(_ context.Context, _ int, d flipDraw) (flipVerdict, error) {
			f, err := c.Build()
			if err != nil {
				return flipVerdict{}, err
			}
			mem := f.MCU().Mem
			flipper := NewBitFlipper(mem, d.flipSeed)
			armed := d.point
			var where string
			mem.SetWriteObserver(func() {
				armed--
				if armed == 0 {
					if a, off, bit, ok := flipper.Flip(); ok {
						where = fmt.Sprintf("%s/%s byte %d bit %d after write %d", a.Owner, a.Name, off-a.Off, bit, d.point)
					}
				}
			})
			rep, err := c.attempt(f)
			mem.SetWriteObserver(nil)
			var v flipVerdict
			if rep != nil && rep.Integrity != nil {
				v.ist = *rep.Integrity
			}
			switch {
			case rep == nil: // panicked
				v.crashed = true
				v.crashLog = fmt.Sprintf("%s: %v", where, err)
			case v.ist.Quarantines > 0 || errors.Is(err, task.ErrCorrupt):
				// Flagged, but beyond repair: the layer detected the
				// corruption and failed safe instead of computing on bad data.
				v.unrec = true
				// Attach the causal history the device itself persisted:
				// the committed flight ring is exactly what the next boot's
				// post-mortem would read.
				v.flight = f.Telemetry().FlightDump()
			case err != nil || rep.NonTerminated || !rep.Completed:
				v.detected = true
			case v.ist.ShadowRestores+v.ist.Resets > 0:
				// The layer repaired the flip and the run finished normally.
				v.recov = true
			default:
				v.masked = diverged(c.Keys, ref, capture(f, rep, c.Keys)) == ""
			}
			if rep != nil {
				// The run ended without an uncontrolled panic, so its
				// deployment is whole: the next run may re-arm it.
				f.Release()
			}
			return v, nil
		})
	if err != nil {
		return nil, err
	}

	out := &FlipReport{Runs: runs, WithIntegrity: c.WithIntegrity}
	for _, v := range verdicts {
		out.Integrity.Add(v.ist)
		switch {
		case v.crashed:
			out.Crashed++
			out.CrashLogs = append(out.CrashLogs, v.crashLog)
		case v.unrec:
			out.Unrecoverable++
			if v.flight != "" {
				out.FlightDumps = append(out.FlightDumps, v.flight)
			}
		case v.detected:
			out.Detected++
		case v.recov:
			out.Recovered++
		case v.masked:
			out.Masked++
		default:
			out.Degraded++
		}
	}
	return out, nil
}

// attempt runs the framework, converting an uncontrolled panic (corrupted
// control state can index out of bounds) into a nil report + error so the
// campaign can classify it instead of dying.
func (c *FlipCampaign) attempt(f *core.Framework) (rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return f.Run()
}
