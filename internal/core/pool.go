package core

import (
	"sync"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/nvm"
)

// Pool deploys one configuration again and again. Its first Deploy builds
// the deployment with New and records its post-construction ("birth")
// state; Release hands a deployment back to the pool that built it, and
// the pool's next Deploy re-arms it to that birth state instead of building
// another. Crash sweeps, fault campaigns and fleet steps, which deploy one
// configuration thousands of times and run each deployment once, deploy
// through a Pool.
//
// A re-armed deployment is the deployment New would build: every charge,
// image byte and report of its runs is the same. The birth state is taken
// with the crash-state machinery (see Recording): the FRAM image with its
// per-allocation wear and access counters, the clock, the supply, the
// MCU's attribution state — the construction traffic not charged yet
// included — the reboot loop's bookkeeping and the host state. Re-arming
// puts all of it back, reloads every committed region's stage from its
// committed image (volatile SRAM, which construction left equal to it)
// and clears the memory's hooks and observers. What else a run leaves in
// host memory is volatile state every boot reloads from FRAM.
//
// Only deployments whose crash states Checkpoint can copy, and that have
// no tracer, are re-armed: no OTA manager, remote monitors, random supply
// or clock, OnDecision or OnReboot observer, or access observer at
// Release. A tracer's event log would be truncated under a Recording that
// indexes it. Any other deployment returns its image to the allocation
// pool on Release, as New's do.
//
// A Pool is safe for concurrent use. It keeps every deployment released to
// it, so it never holds more than were live at once.
type Pool struct {
	cfg Config

	mu    sync.Mutex
	birth *birth
	free  []*deployment
}

// birth is a deployment's state right after construction: a write log
// holding only its keyframe at write 0, one crash-log record and the host
// state.
type birth struct {
	mem  nvm.WriteLog
	dev  device.CrashLog
	host hostState
}

// NewPool returns a pool of deployments of cfg. It builds nothing: the
// first Deploy does, and reports cfg's error.
func NewPool(cfg Config) *Pool { return &Pool{cfg: cfg} }

// Deploy returns a deployment of the pool's configuration that has not
// run: a released one re-armed to its birth state, or a new one.
func (p *Pool) Deploy() (*Framework, error) {
	p.mu.Lock()
	var d *deployment
	if n := len(p.free); n > 0 {
		d = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	b := p.birth
	p.mu.Unlock()
	if d != nil {
		if err := d.rearm(b); err != nil {
			return nil, err
		}
		return &Framework{deployment: d}, nil
	}
	f, err := New(p.cfg)
	if err != nil {
		return nil, err
	}
	f.pool = p
	if b == nil && f.rearmable() {
		b = f.recordBirth()
		p.mu.Lock()
		if p.birth == nil {
			p.birth = b
		}
		p.mu.Unlock()
	}
	return f, nil
}

// put takes a released deployment back for re-arming, reporting whether it
// did.
func (p *Pool) put(d *deployment) bool {
	if !d.rearmable() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.birth == nil {
		return false
	}
	p.free = append(p.free, d)
	return true
}

// rearmable reports whether the deployment's state can be set back to its
// birth state.
func (d *deployment) rearmable() bool { return d.tel == nil && d.refusal() == "" }

// recordBirth records the deployment's state, which must be the one New
// left.
func (d *deployment) recordBirth() *birth {
	b := new(birth)
	mem := d.mcu.Mem
	mem.Log(&b.mem, nil)
	mem.StopLog()
	b.dev.Capture(d.dev)
	b.host = d.hostState()
	return b
}

// rearm sets the deployment back to birth state b.
func (d *deployment) rearm(b *birth) error {
	if err := d.mcu.Mem.Rearm(&b.mem); err != nil {
		return err
	}
	if err := d.dev.Restore(&b.dev, 1); err != nil {
		return err
	}
	d.setHostState(&b.host)
	d.started, d.rec = false, nil
	return nil
}
