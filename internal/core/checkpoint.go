package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/tinysystems/artemis-go/internal/artemis"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/integrity"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// CheckpointError is Checkpoint's refusal: the deployment holds state a
// crash state cannot copy, so a crash point of it has to be reached by
// running the writes before it again.
type CheckpointError struct {
	Reason string
}

func (e *CheckpointError) Error() string { return "core: cannot checkpoint: " + e.Reason }

// Recording holds the crash states of one run: for each FRAM write the run
// made, the state the deployment had right after it. Resume continues
// another deployment of the same configuration from any of them, as if the
// power had failed right after that write.
//
// A crash state is the FRAM image with its per-allocation wear and access
// counters (nvm.WriteLog), the clock, supply, MCU and reboot-loop state
// (device.CrashLog), and the host-side counters that outlast a simulated
// power failure: the runtime's stats, the integrity manager's and the
// tracer's host state, and the count of injected events. Volatile state
// (committed regions' stages, the runtime's working copies) is not part of
// it: every boot reloads it from FRAM.
type Recording struct {
	mem nvm.WriteLog
	dev device.CrashLog
	// host holds each distinct host state in write order; hostAt indexes
	// it per write, since most writes leave the host counters unchanged.
	host   []hostState
	hostAt []int32
	// tel is the recorded run's tracer, whose event log and name table the
	// tracer states index.
	tel *telemetry.Tracer
	// base is the recorded deployment's FRAM counters before its run: a
	// new or re-armed deployment of the same configuration has the same.
	base nvm.Stats
}

// hostState is the host-side part of a crash state.
type hostState struct {
	art      artemis.Stats
	may      mayfly.Stats
	fresh    freshness.Stats
	tel      telemetry.State
	injected uint64
	integ    integrity.HostState
}

func (h *hostState) equal(o *hostState) bool {
	return h.art == o.art && h.may == o.may && h.fresh == o.fresh && h.tel == o.tel &&
		h.injected == o.injected && h.integ.Equal(o.integ)
}

// spare is the last released Recording, kept with its buffers for the next
// Checkpoint. A sync.Pool would lose it to the next garbage collection,
// which a sweep's thousands of deployments trigger several times, and
// regrowing the buffers every sweep raised a sweep's peak RSS by a tenth.
var spare atomic.Pointer[Recording]

// Checkpoint arms crash-state recording for this framework's Run, which
// must follow. It returns a *CheckpointError for a deployment holding state
// a crash state cannot copy:
//
//   - an OTA manager, which allocates FRAM mid-run;
//   - remote monitors, whose radio link and exchanger hold random sources
//     and retry state;
//   - a supply or clock drawing from a random source (a burst harvester,
//     a jittered clock);
//   - an access observer on the memory (such as a correctness tracker),
//     an OnReboot observer or an OnDecision observer, whose own state comes
//     from the run before the crash.
//
// Call Release on the Recording when every Resume from it is done.
func (f *Framework) Checkpoint() (*Recording, error) {
	if f.started {
		return nil, errors.New("core: Checkpoint must come before Run")
	}
	if reason := f.refusal(); reason != "" {
		return nil, &CheckpointError{Reason: reason}
	}
	r := spare.Swap(nil)
	if r == nil {
		r = new(Recording)
	}
	r.dev.Reset()
	r.host = r.host[:0]
	r.hostAt = r.hostAt[:0]
	r.tel = f.tel
	r.base = f.mcu.Mem.Stats()
	f.mcu.Mem.Log(&r.mem, func() { r.capture(f) })
	f.rec = r
	return r, nil
}

// refusal says why the deployment's crash states cannot be copied, or
// returns "" when they can (see Checkpoint).
func (d *deployment) refusal() string {
	switch {
	case d.otaMgr != nil:
		return "an OTA manager allocates FRAM mid-run"
	case d.remote != nil:
		return "remote monitors hold a radio link's random source and retry state"
	case d.cfg.OnDecision != nil:
		return "an OnDecision observer would miss the decisions before the crash"
	case d.mcu.Mem.HasAccessObserver():
		return "an access observer keeps per-attempt state of the run before the crash"
	}
	if err := d.dev.Checkpointable(); err != nil {
		return err.Error()
	}
	return ""
}

// hostState returns the deployment's host-side state.
func (d *deployment) hostState() hostState {
	h := hostState{tel: d.tel.State(), injected: d.injected}
	if d.art != nil {
		h.art = d.art.Stats()
	}
	if d.may != nil {
		h.may = d.may.Stats()
	}
	if d.fresh != nil {
		h.fresh = d.fresh.Stats()
	}
	if d.integ != nil {
		h.integ = d.integ.HostState()
	}
	return h
}

// setHostState puts h back into the deployment, all but the tracer's part,
// which needs the tracer h was taken from (telemetry.Tracer.Restore).
func (d *deployment) setHostState(h *hostState) {
	if d.art != nil {
		d.art.SetStats(h.art)
	}
	if d.may != nil {
		d.may.SetStats(h.may)
	}
	if d.fresh != nil {
		d.fresh.SetStats(h.fresh)
	}
	if d.integ != nil {
		d.integ.SetHostState(h.integ)
	}
	d.injected = h.injected
}

// capture records f's crash state after a FRAM write.
func (r *Recording) capture(f *Framework) {
	r.dev.Capture(f.dev)
	h := f.hostState()
	if n := len(r.host); n == 0 || !r.host[n-1].equal(&h) {
		r.host = append(r.host, h)
	}
	r.hostAt = append(r.hostAt, int32(len(r.host)-1))
}

// Writes returns the number of FRAM writes the recorded run made: its
// crash states are 1 through Writes.
func (r *Recording) Writes() int { return r.mem.Writes() }

// Reboots returns how many reboots the recorded run had made at crash
// state k.
func (r *Recording) Reboots(k int) int { return r.dev.Reboots(k) }

// Release hands the recording's buffers to the next Checkpoint. The
// recording must not be used afterwards.
func (r *Recording) Release() {
	r.tel = nil
	spare.Store(r)
}

// Resume runs this framework from crash state k of rec (1 ≤ k ≤
// rec.Writes()): the state the recorded run had right after its k-th FRAM
// write, with the power failing there. The framework must be a deployment
// of the recorded configuration that has not run: fresh from New, or
// re-armed by a Pool, and neither run nor resumed since. Its FRAM counters
// must read what the recorded deployment's read before its run, and it
// has a tracer exactly when the recorded one had. The report
// and every later observation of the framework are those a run crashed
// after write k would give, except that the report's Breakdown,
// Footprints and Wear are nil: crash sweeps resume thousands of runs and
// read none of them. Tally fills them.
func (f *Framework) Resume(rec *Recording, k int) (*Report, error) {
	switch {
	case f.started:
		return nil, errors.New("core: Resume needs a framework that has not run")
	case f.mcu.Mem.Stats() != rec.base || (f.tel == nil) != (rec.tel == nil):
		return nil, errors.New("core: Resume needs a new or re-armed deployment of the recorded configuration")
	case k < 1 || k > rec.Writes():
		return nil, fmt.Errorf("core: crash state %d outside a recording of %d writes", k, rec.Writes())
	}
	f.started = true
	if err := f.mcu.Mem.Restore(&rec.mem, k); err != nil {
		return nil, err
	}
	h := &rec.host[rec.hostAt[k-1]]
	f.setHostState(h)
	f.tel.Restore(rec.tel, h.tel)
	res, err := f.dev.Resume(f.rt.Boot, &rec.dev, k)
	return f.report(res, err)
}
