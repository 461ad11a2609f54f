// Package chaos is the framework's adversarial robustness harness: a
// deterministic fault-injection and crash-exploration engine that turns the
// paper's resilience claims ("the system survives a power failure at any
// instant", §5–§6) into continuously checkable properties.
//
// Three fault families are covered:
//
//   - Power failures, enumerated systematically at NVM-write granularity.
//     One reference run counts the persistent writes; the explorer then
//     re-runs the deployment once per write index k, forcing a power
//     failure immediately after write k, and checks recovery oracles.
//     Unlike the coarse time-offset sweeps in the runtime tests, this
//     covers *every* distinct persistent state the execution passes
//     through — the exhaustive-reboot-point discipline Surbatovich et
//     al.'s formal treatment of intermittent execution calls for.
//   - Radio faults: loss and duplication on the host ↔ external-monitor
//     link (LossyLink), exercising monitor.Remote's retry/backoff/degrade
//     machinery and the per-sequence-number idempotence that makes
//     duplicated deliveries harmless.
//   - Data faults: sensor faults (stuck-at, spike, dropout) wrapped around
//     the application's sensor sources, and NVM soft errors (bit flips)
//     injected mid-run.
//
// Every campaign is driven by a seedable RNG, so a failing run is
// reproducible from its seed, and produces a structured Report.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Report aggregates the results of one campaign: whichever fault families
// the campaign enabled.
type Report struct {
	Seed   int64
	Crash  *ExploreReport
	Radio  *RadioReport
	Sensor *SensorReport
	Flip   *FlipReport
	Swap   *SwapReport
}

// Failures counts oracle failures across all enabled fault families.
func (r *Report) Failures() int {
	n := 0
	if r.Crash != nil {
		n += r.Crash.Failed
	}
	if r.Radio != nil {
		n += r.Radio.Failed
	}
	if r.Sensor != nil {
		n += r.Sensor.Failed
	}
	if r.Flip != nil {
		n += r.Flip.Crashed
	}
	if r.Swap != nil {
		n += r.Swap.Failed
	}
	return n
}

// String renders the campaign report deterministically (stable ordering,
// no map iteration), so a fixed seed yields byte-identical output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign (seed %d)\n", r.Seed)
	if r.Crash != nil {
		b.WriteString(r.Crash.String())
	}
	if r.Radio != nil {
		b.WriteString(r.Radio.String())
	}
	if r.Sensor != nil {
		b.WriteString(r.Sensor.String())
	}
	if r.Flip != nil {
		b.WriteString(r.Flip.String())
	}
	if r.Swap != nil {
		b.WriteString(r.Swap.String())
	}
	fmt.Fprintf(&b, "verdict:    %s\n", verdictWord(r.Failures() == 0))
	return b.String()
}

// Campaign bundles the fault families to run against one deployment. Nil
// members are skipped.
type Campaign struct {
	// Seed labels the report; every member is built with its own seed.
	Seed int64
	// Workers is propagated to members whose own Workers is zero: each
	// family fans its independent runs across this many goroutines. 0 or 1
	// runs everything serially. Reports are identical at any worker count.
	Workers int
	Crash   *Explorer
	Radio   *RadioCampaign
	Sensor  *SensorCampaign
	Flip    *FlipCampaign
	Swap    *SwapCampaign
}

// Run executes every enabled fault family and aggregates the reports.
// Campaign members inherit the campaign's worker count when their own is
// zero.
func (c *Campaign) Run() (*Report, error) {
	rep := &Report{Seed: c.Seed}
	if c.Crash != nil {
		if c.Crash.Workers == 0 {
			c.Crash.Workers = c.Workers
		}
		cr, err := c.Crash.Run()
		if err != nil {
			return nil, fmt.Errorf("chaos: crash exploration: %w", err)
		}
		rep.Crash = cr
	}
	if c.Radio != nil {
		if c.Radio.Workers == 0 {
			c.Radio.Workers = c.Workers
		}
		rr, err := c.Radio.Run()
		if err != nil {
			return nil, fmt.Errorf("chaos: radio campaign: %w", err)
		}
		rep.Radio = rr
	}
	if c.Sensor != nil {
		if c.Sensor.Workers == 0 {
			c.Sensor.Workers = c.Workers
		}
		sr, err := c.Sensor.Run()
		if err != nil {
			return nil, fmt.Errorf("chaos: sensor campaign: %w", err)
		}
		rep.Sensor = sr
	}
	if c.Flip != nil {
		if c.Flip.Workers == 0 {
			c.Flip.Workers = c.Workers
		}
		fr, err := c.Flip.Run()
		if err != nil {
			return nil, fmt.Errorf("chaos: bit-flip campaign: %w", err)
		}
		rep.Flip = fr
	}
	if c.Swap != nil {
		if c.Swap.Workers == 0 {
			c.Swap.Workers = c.Workers
		}
		sr, err := c.Swap.Run()
		if err != nil {
			return nil, fmt.Errorf("chaos: swap campaign: %w", err)
		}
		rep.Swap = sr
	}
	return rep, nil
}

// rng returns a deterministic source for the given seed; seed 0 is a
// fixed default rather than time-based, keeping every campaign
// reproducible by construction.
func rng(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewSource(seed))
}

// workerCount normalises a campaign's Workers field for parallel.Map:
// the zero value (and 1) means serial, matching the bisection-friendly
// default everywhere in this package.
func workerCount(w int) int {
	if w <= 0 {
		return 1
	}
	return w
}

func verdictWord(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// sortedKeys returns the map's keys in stable order for deterministic
// report rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
