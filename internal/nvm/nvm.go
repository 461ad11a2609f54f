// Package nvm models the ferroelectric RAM (FRAM) of an MSP430FR-class
// microcontroller: byte-addressable non-volatile memory whose individual
// writes persist immediately, plus the higher-level all-or-nothing commit
// facility that intermittent runtimes build on top of it.
//
// Three layers:
//
//   - Memory: the raw FRAM array. Every Write persists (it survives any
//     later power failure), allocation is tracked per owner/name so that
//     experiments can report the FRAM footprint of each component (Table 2),
//     and read/write counters feed the device energy model.
//   - Region: a named allocation inside a Memory, with fixed-width integer
//     accessors.
//   - Committed: a double-buffered region with a single-byte selector flip
//     as the atomic commit point. Task outputs and monitor state use this so
//     that a power failure at any instant leaves either the old or the new
//     contents, never a mixture.
//
// A crash hook can interrupt a write after any byte, which the tests use to
// prove commit atomicity at every possible failure point.
package nvm

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
)

// Stats counts FRAM traffic; the device model converts these to energy.
type Stats struct {
	Reads        int64 // read operations
	Writes       int64 // write operations
	BytesRead    int64
	BytesWritten int64
}

// Memory is a simulated FRAM array with a bump allocator and per-owner
// footprint accounting.
type Memory struct {
	data []byte
	// words is the backing array data aliases, padded to a whole number of
	// 8-byte words so the hash maintenance can always load the aligned word
	// containing any byte. The padding bytes are never written and stay
	// zero, so they contribute nothing to the fingerprint.
	words []byte
	next  int
	// used sums the requested allocation sizes (the Table-2 footprint);
	// next additionally counts the alignment padding the bump allocator
	// inserts to keep every region 8-byte aligned.
	used  int
	allot []allocation
	stats Stats

	// Wear (endurance) accounting is kept per allocation *index*, not in an
	// owner-keyed map: the write path is the simulation's innermost loop and
	// a map assignment with string hashing per store dominated it. Because
	// every boot re-runs the same allocation sequence (the Reboot contract),
	// index i names the same region on every boot; ownersAt records its
	// owner when first allocated and survives Reboot, so wear accumulates
	// across power cycles exactly as the map did.
	ownersAt  []string
	allotWear []int64

	// hash is the incremental fingerprint of data, maintained on every
	// store (write path and FlipBit) at aligned-word granularity: a write
	// folds one digest update per differing 8-byte word rather than one
	// per differing byte. It is an XOR of per-word mixes with
	// mixWord(off, 0) == 0, so a fresh zeroed Memory needs no
	// initialisation pass and Hash() is O(1) — the chaos explorer calls it
	// after every write while pruning.
	hash uint64
	// contrib caches each aligned word's current digest contribution
	// (contrib[i] == mixWord(8i, word at 8i), zero for zero words). A
	// store then folds one fresh mix instead of two — the stale side comes
	// from the cache — and never re-reads the old word. It is host-side
	// acceleration only; the fingerprint value is identical with or
	// without it.
	contrib []uint64

	// crashAfter, when positive, counts down with every byte written; when
	// it reaches zero the crash hook runs (typically panicking with the
	// device's power-failure sentinel), leaving a torn multi-byte write.
	crashAfter int
	crashHook  func()

	// writeCrashAfter counts down with every write *operation*; when it
	// reaches zero writeCrashHook runs after that operation completes, so
	// the memory holds exactly the first k writes of the run. Crash
	// explorers schedule power failures at this granularity.
	writeCrashAfter int
	writeCrashHook  func()

	// observer, when non-nil, runs after every completed write operation;
	// crash explorers use it to fingerprint the persistent state at each
	// potential failure point.
	observer func()

	// access, when non-nil, runs on every raw read and write operation
	// with the affected offset and bytes. Correctness trackers use it to
	// build per-task read/write sets over the persistent image.
	access func(op AccessOp, off int, p []byte)
	// accessBuf is the reusable staging slice write accesses are reported
	// through: copying p here keeps callers' stack-built buffers from
	// escaping to the heap just because an observer *could* be installed.
	accessBuf []byte

	// dirty is the high-water mark of bytes ever stored (write path and
	// FlipBit): data[dirty:] is still all zero. Pool reuse zeroes only
	// data[:dirty] instead of the whole image — the difference between
	// recycling a 256 KiB FRAM and memclr-ing it per run.
	dirty int
	// stageArena is a bump arena the volatile staging buffers of Committed
	// regions are carved from. Staging buffers model SRAM working copies:
	// they are not part of the persistent image, but their lifetime matches
	// the Memory's (a released image invalidates every derived structure),
	// so pooling the arena with the image removes one heap allocation per
	// committed region from deployment construction.
	stageArena []byte
	// commChunks pools Committed headers with the image, for the same
	// reason as stageArena: a deployment's committed regions die with its
	// Memory, so carving their headers from chunks recycled on pool reuse
	// removes one heap allocation per region from construction. Chunks
	// never reallocate, so handed-out *Committed addresses are stable.
	commChunks [][]Committed
	// pooled marks memories born from NewPooled; released guards against
	// double-Release putting one Memory into the pool twice; recycled marks
	// a Memory NewPooled served from the pool rather than allocating.
	pooled   bool
	released bool
	recycled bool
}

// AccessOp classifies one raw FRAM access for access observers.
type AccessOp uint8

// Access operation kinds reported to SetAccessObserver hooks.
const (
	OpRead AccessOp = iota
	OpWrite
)

// Allocation describes one region handed out by Alloc.
type Allocation struct {
	Owner string // component, e.g. "runtime", "monitor", "app"
	Name  string // variable name, e.g. "curTask"
	Off   int
	Size  int
}

// allocation is one entry of the allocation table. The name is kept as the
// caller's base name plus a constant suffix (".a", ".b" and ".sel" for the
// buffers and selector of a committed region, "" otherwise) and joined only
// when Allocations or Region.Name is asked for, which no hot path does:
// every deployment build allocates dozens of committed regions, and a
// concatenated name per region would be a fifth of a crash point's heap
// allocations.
type allocation struct {
	owner, name, suffix string
	off, size           int
}

// New returns a zeroed FRAM of the given size in bytes.
func New(size int) *Memory {
	if size <= 0 {
		panic(fmt.Sprintf("nvm: non-positive memory size %d", size))
	}
	words := make([]byte, (size+7)&^7)
	return &Memory{data: words[:size], words: words, contrib: make([]uint64, len(words)/8)}
}

// word loads the aligned 8-byte word at offset w (a multiple of 8). It reads
// through the padded backing array, so the word containing the image's last
// byte is always loadable; padding bytes are never written and read zero.
func (m *Memory) word(w int) uint64 {
	return binary.LittleEndian.Uint64(m.words[w:])
}

// memPool recycles released Memory images across deployments. One pool
// serves all sizes; NewPooled discards a recycled image whose size does not
// match (the common case is every deployment using the default 256 KiB).
var memPool sync.Pool

// NewPooled returns a zeroed FRAM like New, recycling a previously Released
// image when one of the right size is available. Reset happens on get: the
// dirty prefix is zeroed and all accounting, hooks, and observers are
// cleared, so a recycled Memory is indistinguishable from a fresh one.
// Callers that never Release still get correct (just unrecycled) behaviour.
func NewPooled(size int) *Memory {
	if v := memPool.Get(); v != nil {
		m := v.(*Memory)
		if len(m.data) == size {
			m.reset()
			m.recycled = true
			return m
		}
		// Wrong size: drop it and allocate fresh. Not re-Put — mixed-size
		// workloads would otherwise spin on the same mismatched image.
	}
	m := New(size)
	m.pooled = true
	return m
}

// Release returns a pooled Memory to the recycle pool. The caller must be
// completely done with it: every Region, Committed, and derived structure
// over this Memory is invalid after Release, and the image may be handed to
// another deployment immediately. Releasing a Memory from New (not
// NewPooled), or releasing twice, is a safe no-op.
func (m *Memory) Release() {
	if !m.pooled || m.released {
		return
	}
	m.released = true
	memPool.Put(m)
}

// Recycled reports whether NewPooled served this Memory from the recycle
// pool instead of allocating it. Purely diagnostic: a recycled image is
// indistinguishable from a fresh one.
func (m *Memory) Recycled() bool { return m.recycled }

// reset returns a recycled Memory to the fresh-from-New state: zeroed image
// (only the dirty prefix needs touching), zero accounting, no hooks.
func (m *Memory) reset() {
	clear(m.data[:m.dirty])
	clear(m.contrib[:(m.dirty+7)/8])
	m.dirty = 0
	m.next = 0
	m.used = 0
	m.stageArena = m.stageArena[:0]
	for i := range m.commChunks {
		ch := m.commChunks[i]
		clear(ch[:cap(ch)]) // drop stale pointers from the recycled headers
		m.commChunks[i] = ch[:0]
	}
	m.allot = m.allot[:0]
	m.stats = Stats{}
	m.ownersAt = m.ownersAt[:0]
	m.allotWear = m.allotWear[:0]
	m.hash = 0
	m.crashAfter, m.crashHook = 0, nil
	m.writeCrashAfter, m.writeCrashHook = 0, nil
	m.observer = nil
	m.access = nil
	m.released = false
}

// Size returns the total FRAM capacity in bytes.
func (m *Memory) Size() int { return len(m.data) }

// Used returns the number of bytes allocated so far (the sum of requested
// region sizes, excluding the allocator's alignment padding).
func (m *Memory) Used() int { return m.used }

// Stats returns the access counters.
func (m *Memory) Stats() Stats { return m.stats }

// ResetStats clears the access counters (footprint accounting is kept).
func (m *Memory) ResetStats() { m.stats = Stats{} }

// SetCrashHook arranges for hook to run after n more bytes have been
// written. Pass n <= 0 to disarm. The hook typically panics with a
// power-failure sentinel so that tests can exercise torn writes.
//
// The hook is one-shot: both the countdown and the hook are cleared
// *before* the hook is invoked, so writes performed by the hook itself or
// by recovery code running after it cannot re-fire the same schedule. The
// hook may call SetCrashHook again to arm a fresh schedule (double-crash
// scenarios); exploration loops rely on a fired hook staying disarmed.
func (m *Memory) SetCrashHook(n int, hook func()) {
	m.crashAfter = n
	m.crashHook = hook
}

// SetWriteCrashHook arranges for hook to run after n more write
// *operations* have completed (a multi-byte Write counts once). Pass
// n <= 0 to disarm. Like SetCrashHook the schedule is one-shot: it is
// cleared before the hook runs. Crash explorers use this to enumerate
// power failures at NVM-write granularity — after write k the memory
// holds exactly the first k writes, torn nowhere.
func (m *Memory) SetWriteCrashHook(n int, hook func()) {
	m.writeCrashAfter = n
	m.writeCrashHook = hook
}

// SetWriteObserver installs fn to run after every completed write
// operation (nil uninstalls). Observers must not write to the memory.
func (m *Memory) SetWriteObserver(fn func()) { m.observer = fn }

// SetAccessObserver installs fn to run on every raw FRAM access (nil
// uninstalls): reads as the bytes are fetched, writes before any byte is
// stored — so a write torn by a crash hook is still recorded as attempted,
// matching what recovery may observe. The slice aliases internal buffers
// (the persistent image for reads, a reused staging copy for writes);
// observers must not retain or mutate it, and must not access the memory.
//
// Note the scope: Committed staging traffic lives in volatile SRAM and is
// invisible here by design — the observer sees exactly the accesses that
// touch the persistent image (raw Region/Var traffic, shadow-buffer writes,
// selector reads and flips). The observer survives Reboot, so trackers can
// follow an execution across power failures.
func (m *Memory) SetAccessObserver(fn func(op AccessOp, off int, p []byte)) { m.access = fn }

// Reboot models a power-cycle as seen by the FRAM: all data is retained,
// but the allocator restarts from zero because the next boot re-runs the
// same allocation sequence (on real hardware the linker assigns each
// persistent variable the same address on every boot). Allocation order
// must therefore be deterministic across boots, which boot code written as
// straight-line initialisation guarantees.
func (m *Memory) Reboot() {
	m.next = 0
	m.used = 0
	m.allot = m.allot[:0] // keep capacity: every boot re-runs the same sequence
	m.crashAfter = 0
	m.crashHook = nil
	m.writeCrashAfter = 0
	m.writeCrashHook = nil
}

// Alloc reserves size bytes for the given owner and variable name.
func (m *Memory) Alloc(owner, name string, size int) (*Region, error) {
	r, err := m.allocRegion(owner, name, "", size)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// allocRegion is Alloc returning the Region by value, so composite
// structures (Committed, Var) can embed their regions instead of holding
// three separate heap objects each. The region is named name+suffix, where
// suffix is a constant (see allocation). Regions start 8-byte aligned: the bump
// pointer advances by the size rounded up to a whole word, which keeps every
// word-sized store naturally aligned and the word-granular hash maintenance
// on its fast path. The padding bytes belong to no region, are never
// written, and are excluded from Used().
func (m *Memory) allocRegion(owner, name, suffix string, size int) (Region, error) {
	if size <= 0 {
		return Region{}, fmt.Errorf("nvm: non-positive allocation %d for %s/%s%s", size, owner, name, suffix)
	}
	if m.next+size > len(m.data) {
		return Region{}, fmt.Errorf("nvm: out of memory allocating %d bytes for %s/%s%s (used %d of %d)",
			size, owner, name, suffix, m.next, len(m.data))
	}
	a := allocation{owner: owner, name: name, suffix: suffix, off: m.next, size: size}
	idx := len(m.allot)
	if idx == len(m.ownersAt) {
		// First boot to reach this allocation index: record its owner for
		// cross-reboot wear attribution.
		m.ownersAt = append(m.ownersAt, owner)
		m.allotWear = append(m.allotWear, 0)
	}
	m.allot = append(m.allot, a)
	m.used += size
	m.next += (size + 7) &^ 7
	return Region{mem: m, off: a.off, size: size, owner: owner, name: name, suffix: suffix, idx: idx}, nil
}

// stageBuf carves an n-byte zeroed staging buffer from the memory's bump
// arena (see the stageArena field). Buffers are full slices (capacity
// clamped) so appends can never bleed into a neighbour.
func (m *Memory) stageBuf(n int) []byte {
	if len(m.stageArena)+n > cap(m.stageArena) {
		c := 4096
		for c < n {
			c *= 2
		}
		m.stageArena = make([]byte, 0, c)
	}
	off := len(m.stageArena)
	m.stageArena = m.stageArena[:off+n]
	s := m.stageArena[off : off+n : off+n]
	clear(s)
	return s
}

// MustAlloc is Alloc that panics on failure; for static layouts established
// at boot, where failure is a configuration bug.
func (m *Memory) MustAlloc(owner, name string, size int) *Region {
	r, err := m.Alloc(owner, name, size)
	if err != nil {
		panic(err)
	}
	return r
}

// FootprintBy returns the total bytes allocated by one owner.
func (m *Memory) FootprintBy(owner string) int {
	total := 0
	for _, a := range m.allot {
		if a.owner == owner {
			total += a.size
		}
	}
	return total
}

// Owners returns the distinct owners with allocations, sorted.
func (m *Memory) Owners() []string {
	seen := map[string]bool{}
	for _, a := range m.allot {
		seen[a.owner] = true
	}
	owners := make([]string, 0, len(seen))
	for o := range seen {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	return owners
}

// OwnerTotals adds, for every owner Owners lists, its FootprintBy to
// footprint and its WearOf to wear, in two passes over the allocation table
// rather than one owner list and two scans per owner. Run reports use it.
func (m *Memory) OwnerTotals(footprint map[string]int, wear map[string]int64) {
	for _, a := range m.allot {
		footprint[a.owner] += a.size
		wear[a.owner] += 0 // every owner gets an entry, worn or not
	}
	for i, o := range m.ownersAt {
		if _, ok := footprint[o]; ok {
			wear[o] += m.allotWear[i]
		}
	}
}

// Allocations returns a copy of the allocation table.
func (m *Memory) Allocations() []Allocation {
	out := make([]Allocation, len(m.allot))
	for i, a := range m.allot {
		out[i] = Allocation{Owner: a.owner, Name: a.name + a.suffix, Off: a.off, Size: a.size}
	}
	return out
}

// read charges one FRAM read and returns the image bytes. The access
// observer dispatch is outlined into reportRead so read itself inlines
// into the Region accessors (selector reads run once per commit).
func (m *Memory) read(off, n int) []byte {
	m.stats.Reads++
	m.stats.BytesRead += int64(n)
	if m.access != nil {
		m.reportRead(off, n)
	}
	return m.data[off : off+n]
}

//go:noinline
func (m *Memory) reportRead(off, n int) {
	m.access(OpRead, off, m.data[off:off+n])
}

// readByte is the one-byte spelling of read, with identical charges. It is
// small enough to inline into Region.ByteAt, which matters because selector
// reads run on every commit and reopen.
func (m *Memory) readByte(off int) byte {
	m.stats.Reads++
	m.stats.BytesRead++
	if m.access != nil {
		m.reportRead(off, 1)
	}
	return m.data[off]
}

// writeByte is the one-byte spelling of write, with identical charges and
// hook behaviour. Selector flips — two per commit — are single-byte stores,
// and skipping write's slice plumbing and length dispatch is measurable on
// the commit path. Any armed byte-crash hook falls back to the general
// tearable loop so countdown semantics stay in one place.
func (m *Memory) writeByte(idx, off int, b byte) {
	if m.access != nil || m.crashAfter > 0 {
		var buf [1]byte
		buf[0] = b
		m.write(idx, off, buf[:])
		return
	}
	m.stats.Writes++
	m.account(idx, off, 1)
	m.storeByte(off, b)
	m.stats.BytesWritten++
	if m.writeCrashAfter > 0 {
		m.writeCrashAfter--
		if m.writeCrashAfter == 0 && m.writeCrashHook != nil {
			hook := m.writeCrashHook
			m.writeCrashHook = nil
			hook()
		}
	}
	if m.observer != nil {
		m.observer()
	}
}

// write stores p at off. idx is the allocation index the write lands in
// (every write arrives through a Region, which knows its own), or -1 for
// unattributed traffic; it exists so wear accounting is a slice add instead
// of an offset search in the simulation's innermost loop.
func (m *Memory) write(idx, off int, p []byte) {
	m.stats.Writes++
	if m.access != nil {
		m.reportWrite(off, p)
	}
	m.account(idx, off, len(p))
	if m.crashAfter > 0 {
		m.writeTearable(off, p)
	} else {
		// Fast path: no armed byte-granularity crash, so no store can tear.
		// Equivalent to writeTearable — same data, hash, and final
		// BytesWritten — but scans for differences a word at a time and
		// folds at most one digest update per differing aligned word.
		// Commit traffic (the bulk of all writes) re-stores mostly-unchanged
		// images, so nearly all of the work is word compares.
		switch len(p) {
		case 1:
			// Selector flips and status bytes: patch the containing word.
			m.storeByte(off, p[0])
		case 8:
			if off&7 == 0 {
				// Aligned word store (Vars, seq counters): one comparison,
				// two mixes when it changes.
				old, nw := m.word(off), binary.LittleEndian.Uint64(p)
				if old != nw {
					binary.LittleEndian.PutUint64(m.data[off:], nw)
					m.foldWord(off, nw)
				}
			} else {
				m.writeDiff(off, p)
			}
		default:
			m.writeDiff(off, p)
		}
		m.stats.BytesWritten += int64(len(p))
	}
	if m.writeCrashAfter > 0 {
		m.writeCrashAfter--
		if m.writeCrashAfter == 0 && m.writeCrashHook != nil {
			hook := m.writeCrashHook
			m.writeCrashHook = nil
			hook()
		}
	}
	if m.observer != nil {
		m.observer()
	}
}

// writeRanged is write() for a full-image store whose caller can prove
// that p agrees with the destination outside the byte range [lo, hi):
// only the aligned words overlapping that range are compared and stored.
// Every modelled charge is identical to write() with the same arguments —
// one write op, len(p) bytes of traffic and wear, the same access report,
// observer call, and crash-hook accounting — only the host-side scan is
// narrowed. off must be 8-byte aligned (Committed buffers are; see
// allocRegion), and the range must cover every differing byte, which
// Committed's dirty tracking guarantees by construction.
func (m *Memory) writeRanged(idx, off int, p []byte, lo, hi int) {
	m.stats.Writes++
	if m.access != nil {
		m.reportWrite(off, p)
	}
	m.account(idx, off, len(p))
	if m.crashAfter > 0 {
		// An armed byte-granularity crash needs the byte loop regardless;
		// it stores every byte of p, so the range is irrelevant to it.
		m.writeTearable(off, p)
	} else {
		m.storeRanged(off, p, lo, hi)
		m.stats.BytesWritten += int64(len(p))
	}
	if m.writeCrashAfter > 0 {
		m.writeCrashAfter--
		if m.writeCrashAfter == 0 && m.writeCrashHook != nil {
			hook := m.writeCrashHook
			m.writeCrashHook = nil
			hook()
		}
	}
	if m.observer != nil {
		m.observer()
	}
}

// account books a store of n bytes at off into allocation idx: the
// allocation's wear (idx -1 is unattributed) and the dirty high-water mark.
func (m *Memory) account(idx, off, n int) {
	if idx >= 0 && idx < len(m.allotWear) {
		m.allotWear[idx] += int64(n)
	}
	if end := off + n; end > m.dirty {
		m.dirty = end
	}
}

// storeByte stores one byte, folding its word into the hash if it changed.
// Charges are the caller's.
func (m *Memory) storeByte(off int, b byte) {
	if m.data[off] != b {
		w := off &^ 7
		m.data[off] = b
		m.foldWord(w, m.word(w))
	}
}

// storeRanged is the untearable store of writeRanged: p lands at off, but
// only the aligned words overlapping [lo, hi) are compared and stored.
// Charges are the caller's.
func (m *Memory) storeRanged(off int, p []byte, lo, hi int) {
	if lo >= hi {
		return
	}
	wlo := lo &^ 7
	if hi > len(p) {
		hi = len(p)
	}
	if hi <= wlo+8 && wlo+8 <= len(p) {
		// The range fits one aligned word — the common case for a quiet
		// event's commit (only the sequence number changed) — so skip
		// writeDiff's loop setup entirely.
		w := off + wlo
		old := m.word(w)
		if nw := binary.LittleEndian.Uint64(p[wlo:]); nw != old {
			binary.LittleEndian.PutUint64(m.data[w:], nw)
			m.foldWord(w, nw)
		}
		return
	}
	m.writeDiff(off+wlo, p[wlo:hi])
}

// writeDiff applies the general word-at-a-time difference scan of the
// untearable fast path: unchanged aligned words cost one compare, changed
// ones a store plus two hash mixes. Unaligned heads and partial tails are
// patched through the word containing them, so the fingerprint stays a pure
// function of the aligned-word decomposition of the image.
func (m *Memory) writeDiff(off int, p []byte) {
	end := off + len(p)
	w := off &^ 7
	if off != w {
		hi := w + 8
		if hi > end {
			hi = end
		}
		m.patchWord(w, off, hi, p[:hi-off])
		p = p[hi-off:]
		w = hi
		if w&7 != 0 { // hi was end, inside the first word
			return
		}
	}
	for ; w+8 <= end; w += 8 {
		old := m.word(w)
		nw := binary.LittleEndian.Uint64(p)
		if old != nw {
			binary.LittleEndian.PutUint64(m.data[w:], nw)
			m.foldWord(w, nw)
		}
		p = p[8:]
	}
	if w < end {
		m.patchWord(w, w, end, p)
	}
}

// patchWord stores p into data[lo:hi] — a span inside the aligned word at w
// — and swaps the word's old fingerprint contribution for the new one.
func (m *Memory) patchWord(w, lo, hi int, p []byte) {
	old := m.word(w)
	copy(m.data[lo:hi], p)
	if nw := m.word(w); nw != old {
		m.foldWord(w, nw)
	}
}

// writeTearable is the byte-at-a-time store loop, kept only for runs with an
// armed byte-granularity crash hook: the countdown must be checked after
// every byte so the hook can tear a multi-byte write at any position, with
// BytesWritten counting exactly the bytes attempted before the crash.
func (m *Memory) writeTearable(off int, p []byte) {
	for i, b := range p {
		if old := m.data[off+i]; old != b {
			w := (off + i) &^ 7
			m.data[off+i] = b
			m.foldWord(w, m.word(w))
		}
		m.stats.BytesWritten++
		if m.crashAfter > 0 {
			m.crashAfter--
			if m.crashAfter == 0 && m.crashHook != nil {
				hook := m.crashHook
				m.crashHook = nil
				hook()
			}
		}
	}
}

// reportWrite hands a write to the access observer through the memory's
// own staging slice. The indirection is load-bearing for performance:
// passing p straight to the observer (an unknown function) would make
// escape analysis heap-allocate every small stack-built write buffer in
// the hot path, observer installed or not.
func (m *Memory) reportWrite(off int, p []byte) {
	if cap(m.accessBuf) < len(p) {
		m.accessBuf = make([]byte, len(p))
	}
	buf := m.accessBuf[:len(p)]
	copy(buf, p)
	m.access(OpWrite, off, buf)
}

// FlipBit inverts one bit of the FRAM, modelling a radiation- or
// disturbance-induced soft error. The flip bypasses the write path: it is
// a fault, not a store, so it is invisible to the stats, wear accounting,
// and crash hooks.
func (m *Memory) FlipBit(off int, bit uint) {
	if off < 0 || off >= len(m.data) {
		panic(fmt.Sprintf("nvm: bit flip at %d outside memory of %d bytes", off, len(m.data)))
	}
	if bit > 7 {
		panic(fmt.Sprintf("nvm: bit index %d out of range", bit))
	}
	w := off &^ 7
	m.data[off] ^= 1 << bit
	m.foldWord(w, m.word(w))
	if off+1 > m.dirty {
		m.dirty = off + 1
	}
}

// Hash returns a fingerprint of the entire persistent image. Because
// recovery after a power failure depends only on FRAM contents (all
// volatile state is lost), two crash points with equal hashes have
// identical recovery behaviour — the pruning rule crash explorers use.
//
// The fingerprint is maintained incrementally as bytes are stored, so
// Hash is O(1) regardless of memory size; the chaos explorer calls it
// after every write of a reference run. Hash values are only meaningful
// for comparison against other Hash values from the same process.
func (m *Memory) Hash() uint64 { return m.hash }

// foldWord swaps the aligned word w's digest contribution for that of its
// new value nw (already stored by the caller), reading the stale side from
// the contrib cache instead of re-hashing the old word.
func (m *Memory) foldWord(w int, nw uint64) {
	nc := mixWord(w, nw)
	i := w >> 3
	m.hash ^= m.contrib[i] ^ nc
	m.contrib[i] = nc
}

// mixWord maps one (aligned offset, 8-byte word) pair to its contribution
// to the image fingerprint. The hash is the XOR of mixWord over the image's
// aligned-word decomposition; storing into a word replaces its old
// contribution with the new one via two XORs — one digest fold per
// differing word, however many of its bytes changed. mixWord(off, 0) == 0
// by construction, so a zeroed Memory hashes to 0 without an initialisation
// pass. Nonzero words go through a splitmix64-style finaliser so single-bit
// differences in position or value diffuse across the result.
func mixWord(off int, w uint64) uint64 {
	if w == 0 {
		return 0
	}
	x := w ^ (uint64(off)*0x9e3779b97f4a7c15 + 0xd6e8feb86659fd93)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// recomputeHash rebuilds the fingerprint from the full image; tests use
// it to cross-check the incremental maintenance.
func (m *Memory) recomputeHash() uint64 {
	var h uint64
	for w := 0; w < len(m.data); w += 8 {
		h ^= mixWord(w, m.word(w))
	}
	return h
}

// WearOf returns the total bytes written into one owner's allocations —
// the quantity FRAM endurance budgets are written against. Unlike the
// footprint, wear accumulates with runtime activity, so components that
// commit on every event (monitors) wear far faster than their static size
// suggests.
func (m *Memory) WearOf(owner string) int64 {
	var total int64
	for i, o := range m.ownersAt {
		if o == owner {
			total += m.allotWear[i]
		}
	}
	return total
}

// Region is a named slice of FRAM.
type Region struct {
	mem    *Memory
	off    int
	size   int
	owner  string
	name   string
	suffix string // constant; see allocation
	// idx is this region's allocation index, passed to write() so wear
	// attribution never has to search for the containing allocation. The
	// Reboot contract (deterministic allocation sequence) keeps index i
	// meaning the same region across boots.
	idx int
}

// Size returns the region length in bytes.
func (r *Region) Size() int { return r.size }

// Owner returns the component that allocated the region.
func (r *Region) Owner() string { return r.owner }

// Name returns the variable name of the region.
func (r *Region) Name() string { return r.name + r.suffix }

// check bounds one access; the panic construction is outlined into
// checkFail so check itself stays within the inlining budget — region
// accessors sit on the simulation's innermost loop and the call overhead
// of a non-inlined bounds check is measurable there.
func (r *Region) check(off, n int) {
	if off < 0 || n < 0 || off+n > r.size {
		r.checkFail(off, n)
	}
}

//go:noinline
func (r *Region) checkFail(off, n int) {
	panic(fmt.Sprintf("nvm: access [%d,%d) out of region %s/%s size %d",
		off, off+n, r.owner, r.Name(), r.size))
}

// Read copies region bytes [off, off+len(p)) into p.
func (r *Region) Read(off int, p []byte) {
	r.check(off, len(p))
	copy(p, r.mem.read(r.off+off, len(p)))
}

// Write persists p at region offset off.
func (r *Region) Write(off int, p []byte) {
	r.check(off, len(p))
	r.mem.write(r.idx, r.off+off, p)
}

// Put16 persists a little-endian uint16 at region offset off. Like every
// multi-byte FRAM store it is not atomic: a crash hook can tear it after
// any byte, which is why multi-variable consistency goes through Committed.
func (r *Region) Put16(off int, v uint16) {
	r.check(off, 2)
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], v)
	r.mem.write(r.idx, r.off+off, buf[:])
}

// Get16 reads a little-endian uint16 at region offset off.
func (r *Region) Get16(off int) uint16 {
	r.check(off, 2)
	return binary.LittleEndian.Uint16(r.mem.read(r.off+off, 2))
}

// Put32 persists a little-endian uint32 at region offset off (not atomic;
// see Put16).
func (r *Region) Put32(off int, v uint32) {
	r.check(off, 4)
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	r.mem.write(r.idx, r.off+off, buf[:])
}

// Get32 reads a little-endian uint32 at region offset off.
func (r *Region) Get32(off int) uint32 {
	r.check(off, 4)
	return binary.LittleEndian.Uint32(r.mem.read(r.off+off, 4))
}

// Put64 persists a little-endian uint64 at region offset off (not atomic;
// see Put16). It is the named-width spelling of WriteUint64.
func (r *Region) Put64(off int, v uint64) { r.WriteUint64(off, v) }

// Get64 reads a little-endian uint64 at region offset off.
func (r *Region) Get64(off int) uint64 { return r.ReadUint64(off) }

// ReadUint64 reads a little-endian uint64 at region offset off.
func (r *Region) ReadUint64(off int) uint64 {
	r.check(off, 8)
	return binary.LittleEndian.Uint64(r.mem.read(r.off+off, 8))
}

// WriteUint64 persists a little-endian uint64 at region offset off.
func (r *Region) WriteUint64(off int, v uint64) {
	r.check(off, 8)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	r.mem.write(r.idx, r.off+off, buf[:])
}

// ByteAt reads one byte.
func (r *Region) ByteAt(off int) byte {
	r.check(off, 1)
	return r.mem.readByte(r.off + off)
}

// SetByteAt persists one byte. Single-byte writes are the atomic primitive
// of the FRAM model; Committed uses one as its commit point.
func (r *Region) SetByteAt(off int, b byte) {
	r.check(off, 1)
	r.mem.writeByte(r.idx, r.off+off, b)
}

// Word is the set of fixed-width scalar types storable in a Var.
type Word interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64 | ~float64 | ~bool
}

// Var is a persistent scalar variable: eight bytes of FRAM holding one Word.
// Writes persist immediately; a torn write of a Var is possible under the
// crash hook (real multi-byte FRAM stores are not atomic either), which is
// why multi-variable consistency goes through Committed.
type Var[T Word] struct {
	r Region
}

// AllocVar reserves a persistent variable in m.
func AllocVar[T Word](m *Memory, owner, name string) (*Var[T], error) {
	r, err := m.allocRegion(owner, name, "", 8)
	if err != nil {
		return nil, err
	}
	return &Var[T]{r: r}, nil
}

// MustAllocVar is AllocVar that panics on allocation failure.
func MustAllocVar[T Word](m *Memory, owner, name string) *Var[T] {
	v, err := AllocVar[T](m, owner, name)
	if err != nil {
		panic(err)
	}
	return v
}

// Get reads the variable.
func (v *Var[T]) Get() T {
	return decodeWord[T](v.r.ReadUint64(0))
}

// Set persists the variable.
func (v *Var[T]) Set(val T) {
	v.r.WriteUint64(0, encodeWord(val))
}

func encodeWord[T Word](val T) uint64 {
	switch x := any(val).(type) {
	case bool:
		if x {
			return 1
		}
		return 0
	case int:
		return uint64(int64(x))
	case int32:
		return uint64(int64(x))
	case int64:
		return uint64(x)
	case uint32:
		return uint64(x)
	case uint64:
		return x
	case float64:
		return math.Float64bits(x)
	default:
		// Named types with Word underlying types land here; reflect-free
		// conversion via the type parameter is not possible in a switch, so
		// encode through the only lossless common representation.
		return encodeNamed(val)
	}
}

func decodeWord[T Word](bits uint64) T {
	var zero T
	switch any(zero).(type) {
	case bool:
		return any(bits != 0).(T)
	case int:
		return any(int(int64(bits))).(T)
	case int32:
		return any(int32(int64(bits))).(T)
	case int64:
		return any(int64(bits)).(T)
	case uint32:
		return any(uint32(bits)).(T)
	case uint64:
		return any(bits).(T)
	case float64:
		return any(math.Float64frombits(bits)).(T)
	default:
		return decodeNamed[T](bits)
	}
}

// encodeNamed handles named types whose underlying type is a Word (e.g.
// simclock.Time, which is a named int64); these do not match the concrete
// cases of the type switch above.
func encodeNamed[T Word](val T) uint64 {
	rv := reflect.ValueOf(val)
	switch rv.Kind() {
	case reflect.Bool:
		if rv.Bool() {
			return 1
		}
		return 0
	case reflect.Int, reflect.Int32, reflect.Int64:
		return uint64(rv.Int())
	case reflect.Uint32, reflect.Uint64:
		return rv.Uint()
	case reflect.Float64:
		return math.Float64bits(rv.Float())
	default:
		panic(fmt.Sprintf("nvm: unsupported Var kind %v", rv.Kind()))
	}
}

func decodeNamed[T Word](bits uint64) T {
	var zero T
	rv := reflect.New(reflect.TypeOf(zero)).Elem()
	switch rv.Kind() {
	case reflect.Bool:
		rv.SetBool(bits != 0)
	case reflect.Int, reflect.Int32, reflect.Int64:
		rv.SetInt(int64(bits))
	case reflect.Uint32, reflect.Uint64:
		rv.SetUint(bits)
	case reflect.Float64:
		rv.SetFloat(math.Float64frombits(bits))
	default:
		panic(fmt.Sprintf("nvm: unsupported Var kind %v", rv.Kind()))
	}
	return rv.Interface().(T)
}

// Committed is a double-buffered region with two-phase commit. The current
// buffer is selected by a single persistent byte; Commit writes the staged
// image into the non-current buffer and then flips the selector, which is a
// one-byte (atomic) FRAM write. A power failure at any point therefore
// leaves the last committed image intact.
//
// The staging buffer is volatile: it models the SRAM working copy and is
// discarded by Reopen after a power failure.
type Committed struct {
	// a, b, and ownSel are embedded by value: a committed region is three
	// allocations but one heap object. sel points at ownSel until Join
	// repoints it at a group's shared selector.
	a, b   Region
	ownSel Region
	sel    *Region
	stage  []byte
	size   int
	group  *CommitGroup

	// Dirty-range tracking: host-side bookkeeping that lets Commit prove
	// where a buffer can differ from the stage, so the shadow write scans
	// only that byte range (writeRanged) instead of the whole image. The
	// ranges are conservative supersets — bookkeeping interrupted by a
	// crash hook leaves them larger, never smaller — and carry no modelled
	// semantics. An empty range is lo >= hi.
	//
	//   stLo, stHi      bytes staged since the last commit or reopen
	//   pdLo/pdHi[i]    bytes where buffer i (0=a, 1=b) may differ from
	//                   the stage beyond the staged range
	stLo, stHi int
	pdLo, pdHi [2]int

	// preCommit, when non-nil, runs at the start of every commit involving
	// this region — before any shadow-buffer write, whether the commit is
	// private or group-wide. Integrity guards use it to stage a checksum of
	// the payload into a sibling region of the same group, so guard metadata
	// becomes durable in the same selector flip as the data it covers.
	preCommit func()
}

// committedHeader carves a zeroed Committed header from the memory's chunk
// arena (see the commChunks field).
func (m *Memory) committedHeader() *Committed {
	if n := len(m.commChunks); n == 0 || len(m.commChunks[n-1]) == cap(m.commChunks[n-1]) {
		m.commChunks = append(m.commChunks, make([]Committed, 0, 16))
	}
	ch := &m.commChunks[len(m.commChunks)-1]
	*ch = append(*ch, Committed{})
	return &(*ch)[len(*ch)-1]
}

// AllocCommitted reserves a committed region of the given payload size.
func AllocCommitted(m *Memory, owner, name string, size int) (*Committed, error) {
	c := m.committedHeader()
	c.size = size
	var err error
	if c.a, err = m.allocRegion(owner, name, ".a", size); err != nil {
		return nil, err
	}
	if c.b, err = m.allocRegion(owner, name, ".b", size); err != nil {
		return nil, err
	}
	if c.ownSel, err = m.allocRegion(owner, name, ".sel", 1); err != nil {
		return nil, err
	}
	c.sel = &c.ownSel
	c.stage = m.stageBuf(size)
	c.stLo, c.stHi = size, 0
	c.pdLo[0], c.pdLo[1] = size, size
	c.Reopen()
	return c, nil
}

// mark widens the staged dirty range to cover [off, off+n).
func (c *Committed) mark(off, n int) {
	if off < c.stLo {
		c.stLo = off
	}
	if off+n > c.stHi {
		c.stHi = off + n
	}
}

// MustAllocCommitted panics on allocation failure.
func MustAllocCommitted(m *Memory, owner, name string, size int) *Committed {
	c, err := AllocCommitted(m, owner, name, size)
	if err != nil {
		panic(err)
	}
	return c
}

// Size returns the payload size in bytes.
func (c *Committed) Size() int { return c.size }

// Group returns the commit group this region joined, or nil.
func (c *Committed) Group() *CommitGroup { return c.group }

// SetPreCommit installs fn to run at the start of every commit of this
// region (private or group-wide), before any shadow write. See the field
// documentation on Committed.
func (c *Committed) SetPreCommit(fn func()) { c.preCommit = fn }

func (c *Committed) current() *Region {
	if c.sel.ByteAt(0) == 0 {
		return &c.a
	}
	return &c.b
}

func (c *Committed) shadow() *Region {
	if c.sel.ByteAt(0) == 0 {
		return &c.b
	}
	return &c.a
}

// Reopen reloads the staging buffer from the last committed image. The
// runtime calls this on every reboot; it is what "rolling back task
// modifications" means in the task model.
func (c *Committed) Reopen() {
	cur := 0
	r := &c.a
	if c.sel.ByteAt(0) != 0 {
		cur, r = 1, &c.b
	}
	r.Read(0, c.stage)
	c.reopenRanges(cur)
}

// reopenRanges rebases the dirty tracking after the stage was reloaded from
// buffer cur: the stage now equals cur exactly, and the other buffer may
// differ wherever any range recorded a change — fold everything into its
// pending range.
func (c *Committed) reopenRanges(cur int) {
	sh := 1 - cur
	lo, hi := c.pdLo[sh], c.pdHi[sh]
	if c.pdLo[cur] < lo {
		lo = c.pdLo[cur]
	}
	if c.pdHi[cur] > hi {
		hi = c.pdHi[cur]
	}
	if c.stLo < lo {
		lo = c.stLo
	}
	if c.stHi > hi {
		hi = c.stHi
	}
	c.pdLo[sh], c.pdHi[sh] = lo, hi
	c.pdLo[cur], c.pdHi[cur] = c.size, 0
	c.stLo, c.stHi = c.size, 0
}

// ReadCommitted copies the last committed image (not the stage) into p,
// going through the charged FRAM read path — verification passes pay for
// the bytes they inspect. len(p) must not exceed the payload size.
func (c *Committed) ReadCommitted(p []byte) {
	if len(p) > c.size {
		panic(fmt.Sprintf("nvm: committed-image read of %d bytes out of size %d", len(p), c.size))
	}
	c.current().Read(0, p)
}

// PeekCommitted copies the last committed image into p WITHOUT touching the
// charged read path, the stats, or the access observer. It is a host-side
// instrument for oracles and debuggers: correctness checks that ran through
// ReadCommitted would perturb the energy model (FRAM reads are charged) and
// so change the very crash schedule they are judging. Never use it from
// simulated device code.
func (c *Committed) PeekCommitted(p []byte) {
	if len(p) > c.size {
		panic(fmt.Sprintf("nvm: committed-image peek of %d bytes out of size %d", len(p), c.size))
	}
	r := &c.a
	if c.sel.mem.data[c.sel.off] != 0 {
		r = &c.b
	}
	copy(p, r.mem.data[r.off:r.off+len(p)])
}

// ReadShadow copies the previous committed image (the shadow buffer) into
// p through the charged FRAM read path. Valid only after at least one
// commit has written the shadow; callers verifying it with a checksum
// treat a never-written shadow as failing verification.
func (c *Committed) ReadShadow(p []byte) {
	if len(p) > c.size {
		panic(fmt.Sprintf("nvm: shadow-image read of %d bytes out of size %d", len(p), c.size))
	}
	c.shadow().Read(0, p)
}

// InitImages writes p into both buffers and the stage, establishing a
// committed image without a selector flip. Construction-time only: derived
// regions (e.g. a checksum over another region's initial image) use it to
// agree with their source before the first real commit.
func (c *Committed) InitImages(p []byte) {
	if len(p) != c.size {
		panic(fmt.Sprintf("nvm: InitImages of %d bytes into size %d", len(p), c.size))
	}
	c.a.Write(0, p)
	c.b.Write(0, p)
	copy(c.stage, p)
	// Both buffers now equal the stage: no byte can differ anywhere.
	c.pdLo[0], c.pdHi[0] = c.size, 0
	c.pdLo[1], c.pdHi[1] = c.size, 0
	c.stLo, c.stHi = c.size, 0
}

// Read copies staged bytes (committed image plus any uncommitted writes).
func (c *Committed) Read(off int, p []byte) {
	if off < 0 || off+len(p) > c.size {
		panic(fmt.Sprintf("nvm: committed read [%d,%d) out of size %d", off, off+len(p), c.size))
	}
	copy(p, c.stage[off:])
}

// Write stages bytes; they become persistent only at Commit.
func (c *Committed) Write(off int, p []byte) {
	if off < 0 || off+len(p) > c.size {
		panic(fmt.Sprintf("nvm: committed write [%d,%d) out of size %d", off, off+len(p), c.size))
	}
	copy(c.stage[off:], p)
	c.mark(off, len(p))
}

// ReadUint64 reads a staged little-endian uint64. It goes straight to the
// stage (volatile SRAM, uncharged) rather than through Read's copy loop:
// the monitor engine reads every variable word through here on each step.
// Like WriteUint64, out-of-range offsets panic through the stage slice's
// own bounds check rather than an explicit one, keeping the accessor well
// inside the inlining budget.
func (c *Committed) ReadUint64(off int) uint64 {
	return binary.LittleEndian.Uint64(c.stage[off:])
}

// WriteUint64 stages a little-endian uint64. Out-of-range offsets panic
// through the stage slice's own bounds check (len(stage) == size); the
// explicit check with the prettier message would push this accessor past
// the inlining budget, and it sits on the engine's hottest store path.
//
// A store of the word already staged is dropped entirely: the stage holds
// the same bytes either way, so durability is unaffected — staging is the
// volatile SRAM copy, nothing is charged until commit — and not widening
// the dirty range keeps the commit scan away from words that cannot have
// changed. Machines re-stage their state word on every step and their
// verdict count on every event; both are usually unchanged, and skipping
// them typically shrinks a quiet event's commit scan to a single word.
func (c *Committed) WriteUint64(off int, v uint64) {
	if binary.LittleEndian.Uint64(c.stage[off:]) == v {
		return
	}
	binary.LittleEndian.PutUint64(c.stage[off:], v)
	if off < c.stLo {
		c.stLo = off
	}
	if off+8 > c.stHi {
		c.stHi = off + 8
	}
}

// Commit atomically persists the staged image: the shadow buffer receives
// the full image, then the selector byte flips. On a grouped region (see
// CommitGroup) the whole group commits together — every member's staged
// image becomes durable in the same selector flip.
func (c *Committed) Commit() {
	if c.group != nil {
		c.group.Commit()
		return
	}
	if c.preCommit != nil {
		c.preCommit()
	}
	if c.sel.mem.quiet(2) {
		commitQuiet(c.sel, c)
		return
	}
	c.syncShadow()
	flipSel(c.sel)
}

// syncShadow writes the staged image into the shadow buffer, narrowed by
// the dirty tracking: only the byte range staged since the shadow last
// synced is scanned. Charges are identical to a full
// shadow().Write(0, c.stage) — one selector read, one write op of the full
// image. The bookkeeping runs after the write so a crash hook that panics
// mid-store leaves the ranges as supersets, never missing a byte.
func (c *Committed) syncShadow() {
	t := 1
	if c.sel.ByteAt(0) != 0 {
		t = 0
	}
	sh := c.buf(t)
	lo, hi := c.shadowRange(t)
	sh.mem.writeRanged(sh.idx, sh.off, c.stage, lo, hi)
	c.synced(t)
}

// buf returns buffer i: 0 is a, 1 is b.
func (c *Committed) buf(i int) *Region {
	if i == 0 {
		return &c.a
	}
	return &c.b
}

// shadowRange is the byte range in which shadow buffer t may differ from
// the stage: the staged range widened by t's pending range.
func (c *Committed) shadowRange(t int) (lo, hi int) {
	lo, hi = c.stLo, c.stHi
	if c.pdLo[t] < lo {
		lo = c.pdLo[t]
	}
	if c.pdHi[t] > hi {
		hi = c.pdHi[t]
	}
	return lo, hi
}

// synced rebases the dirty tracking once buffer t holds the stage: t
// differs nowhere, the other buffer may differ wherever bytes were staged,
// and the staged range empties.
func (c *Committed) synced(t int) {
	o := 1 - t
	c.pdLo[t], c.pdHi[t] = c.size, 0
	if c.stLo < c.pdLo[o] {
		c.pdLo[o] = c.stLo
	}
	if c.stHi > c.pdHi[o] {
		c.pdHi[o] = c.stHi
	}
	c.stLo, c.stHi = c.size, 0
}

// quiet reports whether the next ops write operations can fire no hook: no
// access or write observer is installed, no byte-crash countdown is armed,
// and an armed write-crash countdown outlasts them. A commit that is quiet
// takes the one-pass commitQuiet instead of the per-op path.
func (m *Memory) quiet(ops int) bool {
	return m.access == nil && m.observer == nil && m.crashAfter <= 0 &&
		(m.writeCrashAfter <= 0 || m.writeCrashAfter > ops)
}

// commitQuiet is the one-pass form of a commit through selector sel: every
// member's syncShadow, then flipSel. It charges exactly what that per-op
// sequence charges — one selector read per member and one for the flip, one
// write op of each member's full image and one for the selector byte, with
// the same bytes, per-allocation wear, dirty high-water mark, hash and
// write-crash countdown — and skips only the per-op hook dispatch, which
// quiet has shown would do nothing. Every member lives in sel's memory
// (Join enforces it).
func commitQuiet(sel *Region, members ...*Committed) {
	m := sel.mem
	ops := int64(len(members)) + 1
	m.stats.Reads += ops
	m.stats.BytesRead += ops
	m.stats.Writes += ops
	cur := m.data[sel.off]
	t := 1
	if cur != 0 {
		t = 0
	}
	for _, c := range members {
		sh := c.buf(t)
		lo, hi := c.shadowRange(t)
		m.storeRanged(sh.off, c.stage, lo, hi)
		m.account(sh.idx, sh.off, c.size)
		m.stats.BytesWritten += int64(c.size)
		c.synced(t)
	}
	m.storeByte(sel.off, byte(t))
	m.account(sel.idx, sel.off, 1)
	m.stats.BytesWritten++
	if m.writeCrashAfter > 0 {
		m.writeCrashAfter -= int(ops)
	}
}

func flipSel(sel *Region) {
	if sel.ByteAt(0) == 0 {
		sel.SetByteAt(0, 1)
	} else {
		sel.SetByteAt(0, 0)
	}
}

// CommitGroup couples several Committed regions to one shared selector
// byte, making their commits a single atomic event: every member's staged
// image is written to its shadow buffer, then the one shared selector
// flips. A power failure anywhere in the sequence leaves all members on
// their old images; after the flip, all are on their new ones — there is
// no instant at which one member is committed and another is not.
//
// Intermittent runtimes need this at task boundaries: committing the task
// outputs and the control-state advance through separate selectors opens
// a window where the outputs are durable but the control state still says
// the task must run, so a power failure inside the window re-executes the
// task against its own committed outputs — double-counting any
// self-incrementing state. Write-granularity crash exploration
// (internal/chaos) finds exactly this window.
//
// Because Commit on any member persists every member's staged image,
// callers must maintain the invariant that whenever one member commits,
// all members' stages hold the values that should become durable. The
// runtime's protocol satisfies this: control-state commits happen only at
// points where the store's stage equals its committed image or holds the
// finished task's outputs.
type CommitGroup struct {
	sel      Region
	members  []*Committed
	onCommit func()
}

// NewCommitGroup allocates the shared selector for a commit group.
func NewCommitGroup(m *Memory, owner, name string) (*CommitGroup, error) {
	g := &CommitGroup{}
	var err error
	if g.sel, err = m.allocRegion(owner, name, ".sel", 1); err != nil {
		return nil, err
	}
	return g, nil
}

// MustNewCommitGroup is NewCommitGroup that panics on allocation failure.
func MustNewCommitGroup(m *Memory, owner, name string) *CommitGroup {
	g, err := NewCommitGroup(m, owner, name)
	if err != nil {
		panic(err)
	}
	return g
}

// Commit atomically persists every member's staged image with one
// selector flip. Every member's preCommit hook runs before any shadow
// write, so hooks that derive one member's stage from another's (checksum
// guards) see all application staging finished and their output lands in
// the same flip.
func (g *CommitGroup) Commit() {
	for _, c := range g.members {
		if c.preCommit != nil {
			c.preCommit()
		}
	}
	if g.sel.mem.quiet(len(g.members) + 1) {
		commitQuiet(&g.sel, g.members...)
	} else {
		for _, c := range g.members {
			c.syncShadow()
		}
		flipSel(&g.sel)
	}
	if g.onCommit != nil {
		g.onCommit()
	}
}

// SetObserver installs a hook invoked after every completed selector flip
// (the atomic commit point). Observers run on the host side of the
// simulation — telemetry counts commit flips with one — and must not write
// NVM.
func (g *CommitGroup) SetObserver(fn func()) { g.onCommit = fn }

// Revert flips the shared selector back without writing any shadow: every
// member atomically returns to its previous committed image (the one the
// last Commit replaced). Callers must Reopen each member afterwards to
// reload stages. Integrity recovery uses this as the shadow-restore
// policy; it is only sound when the shadow images themselves verify, since
// a crash mid-commit can leave shadows torn.
func (g *CommitGroup) Revert() {
	flipSel(&g.sel)
}

// Members returns the regions coupled to this group's selector, in join
// order.
func (g *CommitGroup) Members() []*Committed { return g.members }

// Join moves c onto the group's shared selector. The region's committed
// image is first duplicated into both of its buffers, so the image reads
// identically under either selector value; from then on c commits with
// the group (and c.Commit() commits the whole group). Join is meant for
// construction time, before any uncommitted writes are staged. c must live
// in the group's memory.
func (c *Committed) Join(g *CommitGroup) {
	if c.a.mem != g.sel.mem {
		panic("nvm: Join of a region from another memory")
	}
	// The duplication buffer comes from the image's staging arena (Join is
	// construction-time, so occupying arena space for its duration is fine);
	// the stage itself is left untouched because callers may already have
	// staged writes for the group's first commit.
	img := c.a.mem.stageBuf(c.size)
	c.current().Read(0, img)
	c.a.Write(0, img)
	c.b.Write(0, img)
	c.joinRanges()
	c.sel = &g.sel
	c.group = g
	g.members = append(g.members, c)
}

// joinRanges rebases the dirty tracking after Join duplicated one image
// into both buffers: either buffer may now differ from the stage wherever
// any range recorded a change, so both pending ranges become the union of
// everything tracked (the staged range folds in and resets; later staged
// writes re-dirty it).
func (c *Committed) joinRanges() {
	lo, hi := c.stLo, c.stHi
	for i := 0; i < 2; i++ {
		if c.pdLo[i] < lo {
			lo = c.pdLo[i]
		}
		if c.pdHi[i] > hi {
			hi = c.pdHi[i]
		}
	}
	c.pdLo[0], c.pdHi[0] = lo, hi
	c.pdLo[1], c.pdHi[1] = lo, hi
	c.stLo, c.stHi = c.size, 0
}
