package chaos

import (
	"context"
	"fmt"
	"strings"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/parallel"
)

// OracleSwap is the spec-swap atomicity oracle: after any fault during an
// over-the-air reprogramming, the device is on exactly the old or exactly
// the new bundle — never a hybrid — and its active image verifies.
const OracleSwap = "swap"

// SwapCampaign exercises over-the-air reprogramming under transfer faults:
// seeded runs with chunk loss, duplication, and periodic in-flight
// corruption. Every run must end in one of exactly two terminal states — a
// clean swap to the new version or a clean rollback to the old — with every
// store output equal to the reference either way; a corrupted bundle must
// always end in rollback.
type SwapCampaign struct {
	// Build constructs a fresh deployment with a swap queued over the given
	// link and corruption hook (both may be nil for the reference run).
	Build func(link monitor.Link, corrupt func(chunk int, data []byte) []byte) (*core.Framework, error)

	// Keys are the store outputs captured into each Outcome. Every one
	// must equal the reference, whichever version the run finishes on.
	Keys []string

	// Runs is how many seeded faulted runs to perform (default 6).
	Runs int

	// Seed derives each run's link seed and corruption draw.
	Seed int64

	// DropProb / DupProb parameterise the chunk transfer channel.
	DropProb float64
	DupProb  float64

	// CorruptEvery marks every n-th run (0-based; 0 disables) to also
	// corrupt one bundle chunk in flight, which must end in rollback.
	CorruptEvery int

	// Workers fans the runs across goroutines (0 or 1 = serial). Each
	// run's faults are drawn before the fan-out, so concurrency never
	// changes what is injected.
	Workers int
}

// SwapRunResult is the verdict of one faulted reprogramming run.
type SwapRunResult struct {
	LinkSeed     int64
	CorruptChunk int // -1 = no corruption injected this run
	Completed    bool
	Swapped      bool
	RolledBack   bool
	Rollback     string // rollback reason, when rolled back
	ChunksSent   int
	Drops        int
	Failure      string // empty = pass
	// FlightDump is the device's committed flight-recorder image at the
	// moment of a failing verdict — the causal history a post-mortem would
	// read from NVM. Populated only when Build attaches a flight recorder.
	FlightDump string
}

// SwapReport summarises a reprogramming campaign.
type SwapReport struct {
	Runs       int
	Failed     int
	Swapped    int
	RolledBack int
	Results    []SwapRunResult
	Ref        Outcome
	// BaseVersion / NewVersion are the two legal terminal versions.
	BaseVersion uint64
	NewVersion  uint64
}

// String renders the campaign summary deterministically.
func (r *SwapReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "swap:       %d faulted updates (v%d -> v%d): %d swapped, %d rolled back, %d failed\n",
		r.Runs, r.BaseVersion, r.NewVersion, r.Swapped, r.RolledBack, r.Failed)
	for _, res := range r.Results {
		if res.Failure != "" {
			fmt.Fprintf(&b, "            FAIL seed %d: %s\n", res.LinkSeed, res.Failure)
			if res.FlightDump != "" {
				fmt.Fprintf(&b, "            %s", strings.ReplaceAll(res.FlightDump, "\n  ", "\n              "))
			}
		}
	}
	return b.String()
}

// Run executes the campaign: one perfect reference update, then Runs
// faulted updates with derived seeds.
func (c *SwapCampaign) Run() (*SwapReport, error) {
	if c.Build == nil {
		return nil, fmt.Errorf("chaos: SwapCampaign needs a Build function")
	}
	runs := c.Runs
	if runs <= 0 {
		runs = 6
	}

	f, err := c.Build(nil, nil)
	if err != nil {
		return nil, err
	}
	mgr := f.OTA()
	if mgr == nil {
		return nil, fmt.Errorf("chaos: SwapCampaign build did not queue a spec swap")
	}
	base := mgr.ActiveVersion()
	rep, err := f.Run()
	if err != nil {
		return nil, fmt.Errorf("chaos: swap reference run failed: %w", err)
	}
	if !rep.Completed {
		return nil, fmt.Errorf("chaos: swap reference run did not complete")
	}
	if st := mgr.Stats(); st.Swaps != 1 || st.Rollbacks != 0 {
		return nil, fmt.Errorf("chaos: swap reference run swapped %d times, rolled back %d", st.Swaps, st.Rollbacks)
	}
	ref := capture(f, rep, c.Keys)
	out := &SwapReport{Runs: runs, Ref: ref, BaseVersion: base, NewVersion: mgr.ActiveVersion()}

	// Draw every run's faults up front from the campaign RNG: link seed
	// and, on corruption runs, which chunk gets a bit flipped.
	type swapDraw struct {
		linkSeed     int64
		corruptChunk int
	}
	r := rng(c.Seed)
	draws := make([]swapDraw, runs)
	for i := range draws {
		draws[i] = swapDraw{linkSeed: c.Seed*7919 + int64(i) + 1, corruptChunk: -1}
		if c.CorruptEvery > 0 && i%c.CorruptEvery == 0 {
			draws[i].corruptChunk = r.Intn(8)
		}
	}

	results, err := parallel.Map(context.Background(), draws, workerCount(c.Workers),
		func(_ context.Context, _ int, d swapDraw) (SwapRunResult, error) {
			link := NewLossyLink(d.linkSeed, c.DropProb, c.DupProb)
			res := SwapRunResult{LinkSeed: d.linkSeed, CorruptChunk: d.corruptChunk}
			// corruptApplied records whether the poisoned chunk was actually
			// transferred — a lossy link may abort the update before it.
			corruptApplied := false
			var corrupt func(chunk int, data []byte) []byte
			if d.corruptChunk >= 0 {
				corrupt = func(chunk int, data []byte) []byte {
					if chunk != d.corruptChunk {
						return data
					}
					corruptApplied = true
					bad := append([]byte(nil), data...)
					bad[0] ^= 0x04
					return bad
				}
			}
			f, err := c.Build(link, corrupt)
			if err != nil {
				return SwapRunResult{}, err
			}
			mgr := f.OTA()
			if mgr == nil {
				return SwapRunResult{}, fmt.Errorf("chaos: SwapCampaign build did not queue a spec swap")
			}
			rep, err := f.Run()
			res.Drops = link.Drops()
			st := mgr.Stats()
			res.ChunksSent = st.ChunksSent
			res.Failure = func() string {
				switch {
				case err != nil:
					return err.Error()
				case !rep.Completed:
					return "run did not complete"
				}
				res.Completed = true
				res.Rollback = st.LastRollback

				// Terminal-state oracle: exactly old or exactly new, image
				// verified, no half-open transfer.
				v := mgr.ActiveVersion()
				if verr := mgr.VerifyActive(); verr != nil {
					return verr.Error()
				}
				switch {
				case st.Swaps == 1 && st.Rollbacks == 0 && v == out.NewVersion:
					res.Swapped = true
					if corruptApplied {
						return fmt.Sprintf("corrupted chunk %d was activated", d.corruptChunk)
					}
				case st.Swaps == 0 && st.Rollbacks == 1 && v == base:
					// A poisoned chunk that landed must never activate; it
					// ends here — via the checksum check, or via a later lost
					// chunk aborting the same transfer first.
					res.RolledBack = true
					if mgr.TransferInFlight() {
						return "rollback left a staged transfer in flight"
					}
				default:
					return fmt.Sprintf("hybrid terminal state: version %d, %d swaps, %d rollbacks (%s)",
						v, st.Swaps, st.Rollbacks, st.LastRollback)
				}
				return diverged(c.Keys, ref, capture(f, rep, c.Keys))
			}()
			if res.Failure != "" {
				// Attach the black box: nil-safe, empty without a recorder.
				res.FlightDump = f.Telemetry().FlightDump()
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
		if res.Swapped {
			out.Swapped++
		}
		if res.RolledBack {
			out.RolledBack++
		}
		out.Results = append(out.Results, res)
	}
	return out, nil
}
