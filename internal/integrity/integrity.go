// Package integrity makes the simulated FRAM stack self-healing: it wraps
// committed NVM regions in CRC32 guards whose checksums commit atomically
// with the data (same CommitGroup selector flip), verifies every guard on
// boot and on a periodic scrub schedule, and repairs what it can.
//
// Repair escalates through three policies, cheapest first:
//
//  1. Shadow restore — a committed image fails its CRC but every guard in
//     the same commit group still has a valid shadow (the previous commit).
//     The group selector is flipped back, which is exactly the state a
//     crash-recovery would have produced; the idempotent replay protocol
//     makes re-execution from there safe by construction.
//  2. Monitor reset — a monitor FSM region whose shadow is also gone is
//     reset to its initial state, which is safe by construction: the FSM
//     re-arms on the next startTask event.
//  3. Quarantine — unrecoverable control or application data is resealed
//     (so the guard stops re-flagging it) and handed to the runtime, which
//     fails the current path through the normal action pipeline (skipPath)
//     or aborts with a typed error when the control state itself is gone.
//
// Every verification charges realistic cycle and FRAM-read costs through
// internal/device under its own component, so the scrubber's overhead shows
// up honestly in the energy breakdown.
package integrity

import (
	"encoding/binary"
	"hash/crc32"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// Owner is the NVM accounting owner for all guard metadata, so Table 2 can
// report the layer's persistent footprint separately.
const Owner = "integrity"

// Cost model for a CRC32 pass over n bytes: a software table-driven CRC on
// the MSP430 class of MCU runs at roughly 8 cycles/byte plus a fixed setup.
const (
	checkBaseCycles  = 40
	crcCyclesPerByte = 8
)

// Class selects the recovery policy applied when both the committed image
// and its shadow fail verification.
type Class int

const (
	// ClassControl is runtime control state: quarantined, and if the
	// runtime cannot rebuild it the run fails with a typed error rather
	// than a panic.
	ClassControl Class = iota
	// ClassMonitor is a monitor FSM: reset to its initial state, which is
	// safe by construction (the FSM re-arms on the next startTask).
	ClassMonitor
	// ClassAppData is application data (store, channels): quarantined and
	// escalated so the runtime fails the current path via skipPath.
	ClassAppData
)

// String names the class for reports.
func (c Class) String() string {
	switch c {
	case ClassControl:
		return "control"
	case ClassMonitor:
		return "monitor"
	case ClassAppData:
		return "appdata"
	}
	return "unknown"
}

// Stats counts the layer's activity. All fields are monotonic.
type Stats struct {
	Guards         int // guarded regions registered
	Checks         int // individual image verifications
	Corruptions    int // images that failed their CRC
	ShadowRestores int // group-level reverts to the last good commit
	Resets         int // monitor FSMs reset to initial state
	Quarantines    int // regions resealed and escalated
	Scrubs         int // periodic scrub passes
	BootVerifies   int // boot-time verification passes
}

// Add accumulates o into s (for campaign-level aggregation).
func (s *Stats) Add(o Stats) {
	s.Guards += o.Guards
	s.Checks += o.Checks
	s.Corruptions += o.Corruptions
	s.ShadowRestores += o.ShadowRestores
	s.Resets += o.Resets
	s.Quarantines += o.Quarantines
	s.Scrubs += o.Scrubs
	s.BootVerifies += o.BootVerifies
}

// Guard is one CRC32-protected committed region. The checksum lives in its
// own 8-byte committed region joined to the data's commit group, and is
// refreshed by a pre-commit hook, so guard and data flip together — there
// is no window in which one is committed without the other.
type Guard struct {
	name        string
	class       Class
	data        *nvm.Committed
	crc         *nvm.Committed
	reset       func() // ClassMonitor fallback; must recommit a valid state
	mgr         *Manager
	buf         []byte // scratch, data.Size() bytes
	quarantined bool
}

// Name identifies the guard in reports and escalation decisions.
func (g *Guard) Name() string { return g.name }

// Class reports the guard's recovery policy class.
func (g *Guard) Class() Class { return g.class }

// stageCRC is the pre-commit hook: checksum the staged payload and stage it
// into the CRC region, so the group's selector flip publishes both at once.
func (g *Guard) stageCRC() {
	mcu := g.mgr.mcu
	mcu.Enter(device.CompIntegrity)
	defer mcu.Leave()
	mcu.Exec(checkBaseCycles + crcCyclesPerByte*int64(len(g.buf)))
	g.data.Read(0, g.buf)
	g.crc.WriteUint64(0, uint64(crc32.ChecksumIEEE(g.buf)))
}

// checkImage verifies one image (committed or shadow) of the guard,
// charging the read and CRC cost. It reports whether the image is intact.
func (g *Guard) checkImage(shadow bool) bool {
	g.mgr.mcu.Exec(checkBaseCycles + crcCyclesPerByte*int64(len(g.buf)))
	var sum [8]byte
	if shadow {
		g.data.ReadShadow(g.buf)
		g.crc.ReadShadow(sum[:])
	} else {
		g.data.ReadCommitted(g.buf)
		g.crc.ReadCommitted(sum[:])
	}
	want := binary.LittleEndian.Uint64(sum[:])
	return uint64(crc32.ChecksumIEEE(g.buf)) == want
}

// cluster groups the guards that share one commit group: their images flip
// together, so repair decisions must be taken together too.
type cluster struct {
	group  *nvm.CommitGroup
	guards []*Guard
}

// Manager owns every guard, runs boot verification and the periodic
// scrubber, and applies the per-class recovery policies.
type Manager struct {
	mem      *nvm.Memory
	mcu      *device.MCU
	interval simclock.Duration
	last     simclock.Time
	guards   []*Guard
	clusters []*cluster // rebuilt lazily after Protect
	pending  []*Guard   // quarantined guards awaiting runtime escalation
	stats    Stats
	tel      *telemetry.Tracer
}

// SetTracer attaches a telemetry tracer; each applied repair then emits a
// ScrubRepair event naming the policy and the guard. Nil disables emission.
func (m *Manager) SetTracer(t *telemetry.Tracer) { m.tel = t }

// NewManager builds a manager scrubbing every scrubInterval of simulated
// time (0 disables the scrubber; boot verification still runs).
func NewManager(mem *nvm.Memory, mcu *device.MCU, scrubInterval simclock.Duration) *Manager {
	return &Manager{mem: mem, mcu: mcu, interval: scrubInterval}
}

// Protect registers a guard over data. The 8-byte CRC region is allocated
// under the integrity owner and joined to data's commit group — if data is
// loose, a fresh group is created (data joins first, so its committed image
// is the one duplicated into the shared selector's view). reset is required
// for ClassMonitor and ignored otherwise.
func (m *Manager) Protect(name string, data *nvm.Committed, class Class, reset func()) *Guard {
	if class == ClassMonitor && reset == nil {
		panic("integrity: ClassMonitor guard needs a reset callback")
	}
	crc := nvm.MustAllocCommitted(m.mem, Owner, name+".crc", 8)
	g := data.Group()
	if g == nil {
		g = nvm.MustNewCommitGroup(m.mem, Owner, name+".grp")
		data.Join(g)
	}
	crc.Join(g)

	guard := &Guard{
		name:  name,
		class: class,
		data:  data,
		crc:   crc,
		reset: reset,
		mgr:   m,
		buf:   make([]byte, data.Size()),
	}
	// Prime both CRC buffers from the current committed payload so the
	// guard verifies before the first real commit.
	data.ReadCommitted(guard.buf)
	var enc [8]byte
	binary.LittleEndian.PutUint64(enc[:], uint64(crc32.ChecksumIEEE(guard.buf)))
	crc.InitImages(enc[:])
	data.SetPreCommit(guard.stageCRC)

	m.guards = append(m.guards, guard)
	m.clusters = nil
	return guard
}

// Guards returns the registered guards in registration order.
func (m *Manager) Guards() []*Guard { return m.guards }

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats {
	s := m.stats
	s.Guards = len(m.guards)
	return s
}

// BootVerify verifies and repairs every guard at boot time and anchors the
// scrub schedule at now.
func (m *Manager) BootVerify(now simclock.Time) {
	m.stats.BootVerifies++
	m.last = now
	m.verifyAll()
}

// Tick runs a scrub pass when the interval has elapsed since the last
// verification. The runtime calls it between steps, never inside one, so a
// scrub can never stretch a task's measured duration.
func (m *Manager) Tick(now simclock.Time) {
	if m.interval <= 0 || now.Sub(m.last) < m.interval {
		return
	}
	m.stats.Scrubs++
	m.last = now
	m.verifyAll()
}

// VerifyNow forces a full verification pass (used by tests and the CLI).
func (m *Manager) VerifyNow() { m.verifyAll() }

// TakeQuarantined pops the oldest quarantined guard awaiting escalation,
// or nil when there is none.
func (m *Manager) TakeQuarantined() *Guard {
	if len(m.pending) == 0 {
		return nil
	}
	g := m.pending[0]
	m.pending = m.pending[1:]
	return g
}

func (m *Manager) clustersNow() []*cluster {
	if m.clusters != nil {
		return m.clusters
	}
	// Registration order keeps the pass deterministic; guards sharing a
	// commit group repair together.
	byGroup := map[*nvm.CommitGroup]*cluster{}
	for _, g := range m.guards {
		grp := g.data.Group()
		c, ok := byGroup[grp]
		if !ok {
			c = &cluster{group: grp}
			byGroup[grp] = c
			m.clusters = append(m.clusters, c)
		}
		c.guards = append(c.guards, g)
	}
	return m.clusters
}

// verifyAll checks every cluster under the integrity component so the cost
// lands in the right row of the energy breakdown.
func (m *Manager) verifyAll() {
	m.mcu.Enter(device.CompIntegrity)
	defer m.mcu.Leave()
	for _, c := range m.clustersNow() {
		m.verifyCluster(c)
	}
}

func (m *Manager) verifyCluster(c *cluster) {
	var corrupt []*Guard
	for _, g := range c.guards {
		m.stats.Checks++
		if !g.checkImage(false) {
			corrupt = append(corrupt, g)
		}
	}
	if len(corrupt) == 0 {
		return
	}
	m.stats.Corruptions += len(corrupt)

	// Policy 1: if every guard in the cluster still has an intact shadow,
	// flip the shared selector back. That is byte-for-byte the state a
	// power failure before the last commit would have left, so the
	// idempotent replay protocol recovers from it by construction.
	allShadowsGood := true
	for _, g := range c.guards {
		if !g.checkImage(true) {
			allShadowsGood = false
			break
		}
	}
	if allShadowsGood {
		c.group.Revert()
		for _, member := range c.group.Members() {
			member.Reopen()
		}
		m.stats.ShadowRestores++
		for _, g := range corrupt {
			m.tel.ScrubRepair("shadowRestore", g.name, m.mcu.Now())
		}
		return
	}

	// Policies 2 and 3: per-guard fallback.
	for _, g := range corrupt {
		if g.class == ClassMonitor && g.reset != nil {
			g.reset() // recommits, which reseals the CRC via the hook
			m.stats.Resets++
			m.tel.ScrubRepair("reset", g.name, m.mcu.Now())
			continue
		}
		m.quarantine(g)
	}
}

// quarantine reseals the guard over its (corrupt) committed image so it
// stops re-flagging, reloads the stage to match, and queues the guard for
// runtime escalation.
func (m *Manager) quarantine(g *Guard) {
	g.data.Reopen()
	g.data.Read(0, g.buf)
	var enc [8]byte
	binary.LittleEndian.PutUint64(enc[:], uint64(crc32.ChecksumIEEE(g.buf)))
	g.crc.InitImages(enc[:])
	m.stats.Quarantines++
	m.tel.ScrubRepair("quarantine", g.name, m.mcu.Now())
	if !g.quarantined {
		g.quarantined = true
		m.pending = append(m.pending, g)
	}
}
