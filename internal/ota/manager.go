package ota

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/action"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/telemetry"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// Owner is the NVM accounting label for OTA state (Table 2).
const Owner = "ota"

// chunkSize is the bundle transfer chunk size: one BLE-class notification
// payload per control exchange.
const chunkSize = 64

// baseVersion is the factory image's version.
const baseVersion = 1

// chunkStageCycles is the synthetic CPU cost of staging one received chunk
// (offset bookkeeping plus the copy into the staging region's write path).
const chunkStageCycles = 24

// Metadata region layout, in 8-byte words. The active triple describes
// the bundle the device is running (version 0 len means the factory image
// compiled into "flash", not held in the staging region); the staged
// triple plus the received-bytes cursor describe the transfer in flight.
// One atomic group commit moves the staged triple into the active triple —
// that selector flip IS the spec swap.
const (
	wActiveVersion = iota
	wActiveLen
	wActiveCRC
	wStagedVersion
	wStagedLen
	wStagedCRC
	wReceived
	metaWords
)

// Config assembles a reprogramming manager.
type Config struct {
	Mem *nvm.Memory
	MCU *device.MCU
	// Exchanger carries bundle chunks: the same retry/backoff machinery
	// (and, for remote deployments, the same link and counters) event
	// notifications use.
	Exchanger *monitor.Exchanger
	Telemetry *telemetry.Tracer

	// Deployment is the active monitor deployment the runtime delivers
	// through; ActiveSet is the live set behind it (the Remote's wrapped
	// set, or Deployment itself for on-device monitoring).
	Deployment monitor.Interface
	ActiveSet  *monitor.Set

	// Capacity is the staging region size in bytes; defaults to 4096.
	Capacity int

	// Corrupt, when non-nil, is the fault-injection hook chaos campaigns
	// use: it may return altered bytes for a chunk in flight. The staged
	// checksum still describes the true bundle, so corruption is caught at
	// verification and ends in rollback.
	Corrupt func(chunk int, data []byte) []byte

	// OnInstall, when non-nil, observes every activation with the new
	// compiled result and live set — the assembly layer uses it to attach
	// tracers and integrity guards to the new deployment.
	OnInstall func(res *transform.Result, set *monitor.Set)
}

// Stats summarises reprogramming activity, volatile (host-side) like the
// runtime's own counters.
type Stats struct {
	ChunksSent int
	Swaps      int
	Rollbacks  int
	// RequestSeq and ActivateSeq are the runtime event sequence numbers at
	// transfer start and at activation; their difference is the
	// events-to-swap adaptability metric.
	RequestSeq  uint64
	ActivateSeq uint64
	// MissedEvents counts event sequence gaps observed across the swap —
	// zero when reprogramming loses no events.
	MissedEvents int
	// TransferEnergyUJ is the radio energy the transfer paid, in µJ.
	TransferEnergyUJ float64
	// LastRollback names the abort cause of the most recent rollback.
	LastRollback string
}

// prepared is a fully migrated, inert new deployment awaiting activation.
// seq records the event sequence the migration captured: the prepared FSM
// state is only valid while no further events have reached the old set.
type prepared struct {
	bundle *Bundle
	set    *monitor.Set
	seq    uint64
}

// Manager orchestrates over-the-air monitor reprogramming. It wraps the
// active deployment (implementing monitor.Interface by delegation, so a
// swap is a host-side pointer change) and exposes the two runtime hooks:
// BootSync reconciles persistent swap state on every boot, AtBoundary
// advances a pending transfer and performs the swap at task boundaries.
//
// Crash-consistency: the staging region and the metadata words share one
// dedicated nvm.CommitGroup. Every received chunk commits atomically with
// its progress cursor, so a reboot at any byte resumes the transfer
// exactly where the last commit left it. Activation stages the
// staged→active triple move and commits once — a single selector flip
// after which the device is on the new version; before it, entirely on
// the old. There is no intermediate observable state, which the chaos
// swap oracle proves by rebooting after every NVM byte of the window.
type Manager struct {
	mem     *nvm.Memory
	mcu     *device.MCU
	ex      *monitor.Exchanger
	tel     *telemetry.Tracer
	group   *nvm.CommitGroup
	meta    *nvm.Committed
	staging *nvm.Committed

	dep       monitor.Interface
	active    *monitor.Set
	installed uint64 // version of the host-side installed deployment
	corrupt   func(chunk int, data []byte) []byte
	onInstall func(res *transform.Result, set *monitor.Set)

	pending     []byte // encoded bundle held by the (always-powered) updater
	pendingVer  uint64
	pendingAt   uint64
	prep        *prepared
	lastSeq     uint64
	justSwapped bool
	energyMark  float64

	windowLo, windowHi int64 // BytesWritten marks bracketing swap activity

	stats Stats
}

// New allocates the manager's persistent regions. Allocation order is
// deterministic: metadata, staging, then the shared selector.
func New(cfg Config) (*Manager, error) {
	if cfg.Mem == nil || cfg.MCU == nil || cfg.Exchanger == nil || cfg.Deployment == nil || cfg.ActiveSet == nil {
		return nil, fmt.Errorf("ota: Config needs Mem, MCU, Exchanger, Deployment, and ActiveSet")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	meta, err := nvm.AllocCommitted(cfg.Mem, Owner, "meta", metaWords*8)
	if err != nil {
		return nil, err
	}
	init := make([]byte, metaWords*8)
	meta.InitImages(init)
	meta.WriteUint64(wActiveVersion*8, baseVersion)
	staging, err := nvm.AllocCommitted(cfg.Mem, Owner, "staging", cfg.Capacity)
	if err != nil {
		return nil, err
	}
	group, err := nvm.NewCommitGroup(cfg.Mem, Owner, "swap")
	if err != nil {
		return nil, err
	}
	meta.Join(group)
	staging.Join(group)
	m := &Manager{
		mem: cfg.Mem, mcu: cfg.MCU, ex: cfg.Exchanger, tel: cfg.Telemetry,
		group: group, meta: meta, staging: staging,
		dep: cfg.Deployment, active: cfg.ActiveSet, installed: baseVersion,
		corrupt: cfg.Corrupt, onInstall: cfg.OnInstall,
	}
	// The factory version becomes durable now (construction time, before
	// any run activity), so BootSync's version comparison is meaningful
	// from the very first boot.
	group.Commit()
	return m, nil
}

// Meta and Staging expose the persistent regions so the assembly layer can
// put integrity guards on them.
func (m *Manager) Meta() *nvm.Committed    { return m.meta }
func (m *Manager) Staging() *nvm.Committed { return m.staging }

// ActiveSet returns the live monitor set behind the current deployment.
func (m *Manager) ActiveSet() *monitor.Set { return m.active }

// Stats returns the reprogramming counters.
func (m *Manager) Stats() Stats { return m.stats }

// ActiveVersion reads the committed active bundle version from NVM — the
// authoritative answer to "which spec is this device running".
func (m *Manager) ActiveVersion() uint64 { return m.meta.ReadUint64(wActiveVersion * 8) }

// InstalledVersion returns the version of the host-side installed
// deployment; it can lag ActiveVersion only in the instant between the
// activation flip and BootSync after a crash there.
func (m *Manager) InstalledVersion() uint64 { return m.installed }

// TransferInFlight reports whether a staged transfer is incomplete.
func (m *Manager) TransferInFlight() bool { return m.meta.ReadUint64(wStagedVersion*8) != 0 }

// SwapWindow returns the BytesWritten marks bracketing swap activity, for
// byte-granularity crash exploration. ok is false until a transfer started.
func (m *Manager) SwapWindow() (lo, hi int64, ok bool) {
	if m.windowLo == 0 {
		return 0, 0, false
	}
	hi = m.windowHi
	if hi == 0 {
		hi = m.mem.Stats().BytesWritten
	}
	return m.windowLo, hi, true
}

// VerifyActive checks the active image against its committed checksum: the
// swap-atomicity oracle's "never a hybrid" assertion. A factory image
// (nothing in the staging region) verifies trivially; an OTA-activated
// image must re-read as exactly the bundle whose checksum was committed in
// the activation flip, with a version matching the active version word.
func (m *Manager) VerifyActive() error {
	alen := int(m.meta.ReadUint64(wActiveLen * 8))
	if alen == 0 {
		return nil
	}
	if alen > m.staging.Size() {
		return fmt.Errorf("ota: active image length %d exceeds staging capacity %d", alen, m.staging.Size())
	}
	buf := make([]byte, alen)
	m.staging.ReadCommitted(buf)
	b, err := Decode(buf)
	if err != nil {
		return fmt.Errorf("ota: active image does not verify: %w", err)
	}
	if want := m.ActiveVersion(); b.Version != want {
		return fmt.Errorf("ota: active image is version %d, metadata says %d", b.Version, want)
	}
	return nil
}

// Request queues an update: the encoded bundle starts transferring at the
// first task boundary after runtime event sequence number at. The bundle
// is validated up front — the updater side would never transmit a damaged
// image on purpose; damage in flight is the Corrupt hook's job.
func (m *Manager) Request(encoded []byte, at uint64) error {
	b, err := Decode(encoded)
	if err != nil {
		return err
	}
	if b.Version <= m.installed {
		return fmt.Errorf("ota: bundle version %d not newer than installed %d", b.Version, m.installed)
	}
	if len(encoded) > m.staging.Size() {
		return fmt.Errorf("ota: bundle of %d bytes exceeds staging capacity %d", len(encoded), m.staging.Size())
	}
	m.pending = encoded
	m.pendingVer = b.Version
	m.pendingAt = at
	return nil
}

// Monitor deployment delegation: the runtime talks to the Manager as its
// monitor.Interface; a swap changes which deployment is behind it.

// Deliver implements monitor.Interface, tracking event sequence numbers so
// the swap trigger and the missed-event metric need no runtime plumbing.
func (m *Manager) Deliver(ev monitor.Event) ([]ir.Failure, error) {
	if m.justSwapped && ev.Seq > m.lastSeq {
		if gap := ev.Seq - m.lastSeq - 1; gap > 0 {
			m.stats.MissedEvents += int(gap)
		}
		m.justSwapped = false
	}
	if ev.Seq > m.lastSeq {
		m.lastSeq = ev.Seq
	}
	return m.dep.Deliver(ev)
}

// Reset implements monitor.Interface.
func (m *Manager) Reset() { m.dep.Reset() }

// Rollback implements monitor.Interface.
func (m *Manager) Rollback() { m.dep.Rollback() }

// ResetPath implements monitor.Interface.
func (m *Manager) ResetPath(id int) { m.dep.ResetPath(id) }

// HostMachines implements monitor.Interface.
func (m *Manager) HostMachines() int { return m.dep.HostMachines() }

// BootSync reconciles persistent swap state with the host-side deployment
// on every boot, before the runtime rolls the monitors back: the group's
// stages reload from the last committed images (transfer progress resumes
// from the last whole chunk), and if the activation flip landed but the
// power failed before the host installed the new deployment, the prepared
// set is installed now — the swap committed, so the device resumes on the
// new version.
func (m *Manager) BootSync(now simclock.Time) {
	m.meta.Reopen()
	m.staging.Reopen()
	if v := m.ActiveVersion(); v != m.installed {
		if m.prep != nil && m.prep.bundle.Version == v {
			m.install(m.prep, now)
			return
		}
		// The prepared deployment is gone (defensive: a prepare always
		// precedes the flip in the same boundary visit). Rebuild it from
		// the committed active image, resetting FSM state — a safe, fresh
		// deployment of the committed version.
		alen := int(m.meta.ReadUint64(wActiveLen * 8))
		buf := make([]byte, alen)
		m.staging.ReadCommitted(buf)
		if b, err := Decode(buf); err == nil {
			if set, err := monitor.NewSet(m.mem, b.Result); err == nil {
				set.Reset()
				m.install(&prepared{bundle: b, set: set}, now)
			}
		}
	}
}

// AtBoundary advances reprogramming work at a task boundary: transfer any
// remaining chunks of a pending bundle, then verify, migrate, and activate
// it. Returned failures carry abort reports into monitor.Decide
// arbitration. All radio and staging work is attributed to the monitoring
// component, like event exchanges.
func (m *Manager) AtBoundary(now simclock.Time) []ir.Failure {
	if m.pending == nil || m.lastSeq < m.pendingAt {
		return nil
	}
	m.mcu.Enter(device.CompMonitor)
	defer m.mcu.Leave()

	if m.windowLo == 0 {
		m.windowLo = m.mem.Stats().BytesWritten
		m.energyMark = float64(m.ex.Energy())
		m.stats.RequestSeq = m.lastSeq
	}
	if fs := m.transfer(now); fs != nil {
		return fs
	}
	if m.received() < uint64(len(m.pending)) {
		return nil // resumes at the next boundary (power failed mid-loop)
	}
	return m.verifyAndSwap(now)
}

func (m *Manager) received() uint64 { return m.meta.ReadUint64(wReceived * 8) }

// transfer ships remaining chunks, one control exchange each, committing
// every chunk atomically with the progress cursor. Chunk loss (retries
// exhausted) aborts the update; duplicated chunk frames re-apply the same
// bytes at the same offset — idempotent by construction.
func (m *Manager) transfer(now simclock.Time) []ir.Failure {
	total := len(m.pending)
	for off := int(m.received()); off < total; off = int(m.received()) {
		n := chunkSize
		if off+n > total {
			n = total - off
		}
		data := m.pending[off : off+n]
		if m.corrupt != nil {
			data = m.corrupt(off/chunkSize, data)
		}
		_, delivered, dups := m.ex.ControlExchange()
		if !delivered {
			return m.rollback("transfer", now)
		}
		m.mcu.Exec(chunkStageCycles)
		if off == 0 {
			m.meta.WriteUint64(wStagedVersion*8, m.pendingVer)
			m.meta.WriteUint64(wStagedLen*8, uint64(total))
			m.meta.WriteUint64(wStagedCRC*8, uint64(Checksum(m.pending)))
			// The staging bytes stop being the previous active image the
			// moment the first new chunk lands; surrender it in the same
			// commit so VerifyActive never checks half-overwritten bytes.
			m.meta.WriteUint64(wActiveLen*8, 0)
			m.meta.WriteUint64(wActiveCRC*8, 0)
		}
		apply := func() {
			m.staging.Write(off, data)
			m.meta.WriteUint64(wReceived*8, uint64(off+n))
			m.group.Commit()
		}
		apply()
		m.stats.ChunksSent++
		for i := 0; i < dups; i++ {
			apply() // duplicate frame: same bytes, same offset, same cursor
		}
		m.ex.ReceiveAck()
	}
	return nil
}

// verifyAndSwap checks the staged image, prepares the migrated deployment,
// and activates it with one atomic group commit.
func (m *Manager) verifyAndSwap(now simclock.Time) []ir.Failure {
	stagedVer := m.meta.ReadUint64(wStagedVersion * 8)
	stagedLen := int(m.meta.ReadUint64(wStagedLen * 8))
	buf := make([]byte, stagedLen)
	m.staging.ReadCommitted(buf)
	if Checksum(buf) != uint32(m.meta.ReadUint64(wStagedCRC*8)) {
		return m.rollback("checksum", now)
	}
	b, err := Decode(buf)
	if err != nil {
		return m.rollback("parse", now)
	}
	if b.Version != stagedVer || b.Version <= m.ActiveVersion() {
		return m.rollback("version", now)
	}
	// Prepare: a fresh persistent deployment, migrated from the live one.
	// Reused only when the old set has processed no events since the
	// migration was captured: if a reboot interrupted a previous activation
	// attempt before the flip, the runtime delivered more events to the old
	// deployment before this boundary, and activating the stale snapshot
	// would fork monitor state (a collect counter one behind re-fires its
	// action — the swap crash explorer caught exactly this). Re-migrating
	// from the current live state costs one orphaned set allocation per
	// interrupted attempt, bounded by the number of crashes.
	if m.prep == nil || m.prep.bundle.Version != b.Version || m.prep.seq != m.lastSeq {
		set, err := m.prepare(b)
		if err != nil {
			return m.rollback("migration", now)
		}
		m.prep = &prepared{bundle: b, set: set, seq: m.lastSeq}
	}
	// Activate: one staged metadata move, one group commit — the atomic
	// selector flip that swaps the active spec version. Before the flip
	// the device is entirely on the old bundle; after it, entirely on the
	// new one.
	m.meta.WriteUint64(wActiveVersion*8, stagedVer)
	m.meta.WriteUint64(wActiveLen*8, uint64(stagedLen))
	m.meta.WriteUint64(wActiveCRC*8, m.meta.ReadUint64(wStagedCRC*8))
	m.meta.WriteUint64(wStagedVersion*8, 0)
	m.meta.WriteUint64(wStagedLen*8, 0)
	m.meta.WriteUint64(wStagedCRC*8, 0)
	m.meta.WriteUint64(wReceived*8, 0)
	m.group.Commit()
	m.install(m.prep, now)
	return nil
}

// prepare builds the new monitor set and migrates live FSM state into it:
// mapped states carry over with their variables and replay bookkeeping;
// unmapped states reset per-path semantics but still inherit the replay
// cursor, so the new deployment never re-processes an answered event.
// Every migrated configuration commits on its own region — inert until
// the activation flip makes anything reference it.
func (m *Manager) prepare(b *Bundle) (*monitor.Set, error) {
	set, err := monitor.NewSet(m.mem, b.Result)
	if err != nil {
		return nil, err
	}
	set.Reset()
	for _, nm := range set.Monitors() {
		om := m.active.Monitor(nm.Machine().Name)
		if om == nil {
			continue
		}
		if target, ok := b.Migration[nm.Machine().Name][om.State()]; ok {
			if err := nm.AdoptFrom(om, target); err != nil {
				return nil, err
			}
			continue
		}
		nm.SeedReplay(om)
	}
	return set, nil
}

// install points the host-side deployment at the prepared set. Called only
// after the activation flip committed (or, from BootSync, after a reboot
// that found the flip committed).
func (m *Manager) install(p *prepared, now simclock.Time) {
	if rem, ok := m.dep.(*monitor.Remote); ok {
		rem.ReplaceSet(p.set)
	} else {
		m.dep = p.set
	}
	m.active = p.set
	m.installed = p.bundle.Version
	m.prep = nil
	m.pending = nil
	m.justSwapped = true
	m.stats.Swaps++
	m.stats.ActivateSeq = m.lastSeq
	m.closeWindow()
	if m.onInstall != nil {
		m.onInstall(p.bundle.Result, p.set)
	}
	m.tel.SpecSwap(p.bundle.Version, now)
}

// rollback aborts the update: the staged triple and progress cursor clear
// in one atomic commit (byte-exact discard of the transfer, as the
// CommitGroup semantics guarantee), the pending bundle is dropped, and a
// synthetic failure reports the abort through action arbitration.
func (m *Manager) rollback(reason string, now simclock.Time) []ir.Failure {
	staged := m.meta.ReadUint64(wStagedVersion * 8)
	if staged == 0 {
		staged = m.pendingVer
	}
	m.meta.WriteUint64(wStagedVersion*8, 0)
	m.meta.WriteUint64(wStagedLen*8, 0)
	m.meta.WriteUint64(wStagedCRC*8, 0)
	m.meta.WriteUint64(wReceived*8, 0)
	m.group.Commit()
	m.pending = nil
	m.prep = nil
	m.stats.Rollbacks++
	m.stats.LastRollback = reason
	m.closeWindow()
	m.tel.SwapRollback(reason, staged, now)
	return []ir.Failure{{Machine: "ota:" + reason, Action: action.None, Path: 0}}
}

func (m *Manager) closeWindow() {
	m.windowHi = m.mem.Stats().BytesWritten
	m.stats.TransferEnergyUJ = (float64(m.ex.Energy()) - m.energyMark) * 1e6
}
