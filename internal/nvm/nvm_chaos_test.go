package nvm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

func TestRegionPut16Put32Put64RoundTrip(t *testing.T) {
	m := New(256)
	r := m.MustAlloc("t", "x", 14)
	r.Put16(0, 0xBEEF)
	r.Put32(2, 0xDEADBEEF)
	r.Put64(6, 0x0123456789ABCDEF)
	if got := r.Get16(0); got != 0xBEEF {
		t.Fatalf("Get16 = %#x", got)
	}
	if got := r.Get32(2); got != 0xDEADBEEF {
		t.Fatalf("Get32 = %#x", got)
	}
	if got := r.Get64(6); got != 0x0123456789ABCDEF {
		t.Fatalf("Get64 = %#x", got)
	}
}

// Raw multi-byte region writes ARE tearable: a crash after any interior
// byte boundary leaves a mixture of old and new bytes. This is the failure
// mode the Committed layer exists to mask.
func TestRegionPutsTearAtEveryByteBoundary(t *testing.T) {
	cases := []struct {
		name  string
		width int
		put   func(r *Region)
	}{
		{"Put16", 2, func(r *Region) { r.Put16(0, 0x5555) }},
		{"Put32", 4, func(r *Region) { r.Put32(0, 0x55555555) }},
		{"Put64", 8, func(r *Region) { r.Put64(0, 0x5555555555555555) }},
	}
	for _, tc := range cases {
		for point := 1; point < tc.width; point++ {
			m := New(64)
			r := m.MustAlloc("t", "x", tc.width)
			old := bytes.Repeat([]byte{0xAA}, tc.width)
			r.Write(0, old)
			m.SetCrashHook(point, func() { panic(crash{}) })
			if !crashing(func() { tc.put(r) }) {
				t.Fatalf("%s: crash hook did not fire at byte %d", tc.name, point)
			}
			got := make([]byte, tc.width)
			r.Read(0, got)
			want := append(bytes.Repeat([]byte{0x55}, point), bytes.Repeat([]byte{0xAA}, tc.width-point)...)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s crash at byte %d: image %x, want torn %x", tc.name, point, got, want)
			}
		}
	}
}

// The same multi-byte values routed through a Committed region are crash
// atomic: a power failure after every possible byte of the commit sequence
// exposes the complete old value or the complete new value, never a
// mixture.
func TestCommittedPutsAtomicAtEveryByteBoundary(t *testing.T) {
	cases := []struct {
		name       string
		width      int
		stage      func(c *Committed)
		read       func(c *Committed) uint64
		oldV, newV uint64
	}{
		{"16", 2,
			func(c *Committed) {
				var b [2]byte
				b[0], b[1] = 0x55, 0x55
				c.Write(0, b[:])
			},
			func(c *Committed) uint64 {
				var b [2]byte
				c.Read(0, b[:])
				return uint64(b[0]) | uint64(b[1])<<8
			},
			0xAAAA, 0x5555},
		{"64", 8,
			func(c *Committed) { c.WriteUint64(0, 0x5555555555555555) },
			func(c *Committed) uint64 { return c.ReadUint64(0) },
			0xAAAAAAAAAAAAAAAA, 0x5555555555555555},
	}
	for _, tc := range cases {
		// A commit writes width payload bytes plus one selector byte.
		for point := 1; point <= tc.width+1; point++ {
			m := New(256)
			c := MustAllocCommitted(m, "t", "x", tc.width)
			c.Write(0, bytes.Repeat([]byte{0xAA}, tc.width))
			c.Commit()

			tc.stage(c)
			m.SetCrashHook(point, func() { panic(crash{}) })
			crashed := crashing(func() { c.Commit() })
			m.SetCrashHook(0, nil)

			c.Reopen()
			switch got := tc.read(c); got {
			case tc.oldV:
				if !crashed {
					t.Fatalf("width %s point %d: commit completed but old value visible", tc.name, point)
				}
			case tc.newV:
				// Crash after the selector flip, or no crash.
			default:
				t.Fatalf("width %s crash point %d: torn value %#x", tc.name, point, got)
			}
		}
	}
}

func TestWriteCrashHookFiresAtExactWriteOp(t *testing.T) {
	m := New(64)
	r := m.MustAlloc("t", "x", 8)
	fired := 0
	m.SetWriteCrashHook(3, func() { fired++ })
	for i := 0; i < 5; i++ {
		r.SetByteAt(0, byte(i))
	}
	if fired != 1 {
		t.Fatalf("write crash hook fired %d times, want exactly 1", fired)
	}
}

// The one-shot contract: the schedule is cleared before the hook runs, so
// writes performed during recovery — or a hook re-arming a fresh schedule —
// never double-fire the original one.
func TestWriteCrashHookOneShotAndRearm(t *testing.T) {
	m := New(64)
	r := m.MustAlloc("t", "x", 8)
	var firstFired, secondFired int
	m.SetWriteCrashHook(1, func() {
		firstFired++
		// Writing from inside the hook must not re-enter it.
		r.SetByteAt(1, 0xEE)
		// Re-arm a fresh schedule: fires after 2 more write ops.
		m.SetWriteCrashHook(2, func() { secondFired++ })
	})
	r.SetByteAt(0, 1) // fires first hook; its interior write counts toward the re-armed schedule
	r.SetByteAt(0, 2) // completes the re-armed schedule
	r.SetByteAt(0, 3)
	if firstFired != 1 {
		t.Fatalf("first hook fired %d times, want 1", firstFired)
	}
	if secondFired != 1 {
		t.Fatalf("re-armed hook fired %d times, want 1", secondFired)
	}
}

func TestRebootClearsCrashSchedules(t *testing.T) {
	m := New(64)
	r := m.MustAlloc("t", "x", 8)
	m.SetCrashHook(100, func() { t.Fatal("byte hook fired after reboot") })
	m.SetWriteCrashHook(1, func() { t.Fatal("write hook fired after reboot") })
	m.Reboot()
	r.SetByteAt(0, 1)
}

func TestFlipBitTogglesWithoutAccounting(t *testing.T) {
	m := New(64)
	r := m.MustAlloc("t", "x", 1)
	r.SetByteAt(0, 0b0000_1000)
	before := m.Stats()
	m.FlipBit(r.off, 3)
	if got := r.ByteAt(0); got != 0 {
		t.Fatalf("bit 3 not cleared: %#b", got)
	}
	m.FlipBit(r.off, 3)
	if got := r.ByteAt(0); got != 0b0000_1000 {
		t.Fatalf("bit 3 not restored: %#b", got)
	}
	if after := m.Stats(); after.Writes != before.Writes {
		t.Fatalf("FlipBit counted as %d write ops — soft errors must bypass the energy model", after.Writes-before.Writes)
	}
}

// A commit writes the whole staged image into the shadow buffer, so a bit
// flipped in the shadow cannot outlive the next commit, even in a word no
// write since has staged. Checked for a private and a grouped region, on
// the one-pass commit and on the per-op path a write observer forces.
func TestCommitOverwritesFlippedShadow(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		for _, perOp := range []bool{false, true} {
			t.Run(fmt.Sprintf("grouped=%v/perOp=%v", grouped, perOp), func(t *testing.T) {
				m := New(256)
				c := MustAllocCommitted(m, "t", "x", 16)
				if grouped {
					c.Join(MustNewCommitGroup(m, "t", "grp"))
				}
				if perOp {
					m.SetWriteObserver(func() {})
				}
				c.WriteUint64(8, 7)
				for i := uint64(1); i <= 3; i++ {
					c.WriteUint64(0, i)
					c.Commit()
				}
				m.FlipBit(c.shadow().off+12, 5)
				c.WriteUint64(0, 4)
				c.Commit()
				got := make([]byte, 16)
				c.PeekCommitted(got)
				if !bytes.Equal(got, c.stage) {
					t.Fatalf("committed image % x, staged % x: the flipped bit survived the commit", got, c.stage)
				}
			})
		}
	}
}

func TestHashDistinguishesAndMatchesStates(t *testing.T) {
	m1, m2 := New(128), New(128)
	r1 := m1.MustAlloc("t", "x", 8)
	r2 := m2.MustAlloc("t", "x", 8)
	r1.Put64(0, 42)
	r2.Put64(0, 42)
	if m1.Hash() != m2.Hash() {
		t.Fatal("identical images hash differently")
	}
	r2.Put64(0, 43)
	if m1.Hash() == m2.Hash() {
		t.Fatal("different images hash equal")
	}
}

// A commit group couples its members: a crash anywhere inside the group
// commit leaves every member on its old image or every member on its new
// image — the invariant the runtime's task boundary is built on.
func TestCommitGroupAtomicAtEveryCrashPoint(t *testing.T) {
	const size = 8
	// Group commit writes 2*size shadow bytes plus one selector byte.
	for point := 1; point <= 2*size+1; point++ {
		m := New(1024)
		g, err := NewCommitGroup(m, "t", "grp")
		if err != nil {
			t.Fatal(err)
		}
		c1 := MustAllocCommitted(m, "t", "one", size)
		c2 := MustAllocCommitted(m, "t", "two", size)
		c1.Join(g)
		c2.Join(g)
		c1.WriteUint64(0, 100)
		c2.WriteUint64(0, 200)
		g.Commit()

		c1.WriteUint64(0, 101)
		c2.WriteUint64(0, 201)
		m.SetCrashHook(point, func() { panic(crash{}) })
		crashing(func() { g.Commit() })
		m.SetCrashHook(0, nil)

		c1.Reopen()
		c2.Reopen()
		v1, v2 := c1.ReadUint64(0), c2.ReadUint64(0)
		oldBoth := v1 == 100 && v2 == 200
		newBoth := v1 == 101 && v2 == 201
		if !oldBoth && !newBoth {
			t.Fatalf("crash point %d: group torn across members: %d / %d", point, v1, v2)
		}
	}
}

// A group commit of ops write operations (each member's shadow plus the
// selector flip) with the write-crash countdown at ops-1, ops and ops+1:
// the first two land inside the commit, so it must run per-op and fire
// there; ops+1 outlasts it, so it runs one-pass and the next write fires.
// Either way every charge, the image, the hash and the firing point must
// match a memory forced onto the per-op path by a write observer.
func TestGroupCommitWriteCrashCountdown(t *testing.T) {
	const members = 3
	const ops = members + 1
	for _, n := range []int{ops - 1, ops, ops + 1} {
		run := func(perOp bool) (*Memory, int64) {
			m := New(1024)
			g := MustNewCommitGroup(m, "t", "grp")
			var cs [members]*Committed
			for i := range cs {
				cs[i] = MustAllocCommitted(m, "t", fmt.Sprintf("c%d", i), 24)
				cs[i].Join(g)
				cs[i].WriteUint64(8*i, uint64(100+i))
			}
			g.Commit()
			for i, c := range cs {
				c.WriteUint64(8*((i+1)%3), uint64(200+i))
			}
			tail := m.MustAlloc("t", "tail", 8)
			if perOp {
				m.SetWriteObserver(func() {})
			}
			firedAt := int64(-1)
			m.SetWriteCrashHook(n, func() { firedAt = m.Stats().Writes })
			g.Commit()
			tail.SetByteAt(0, 1)
			return m, firedAt
		}
		fast, fastAt := run(false)
		slow, slowAt := run(true)
		if fastAt < 0 || fastAt != slowAt {
			t.Errorf("countdown %d: hook fired at write %d, per-op at %d", n, fastAt, slowAt)
		}
		if fast.Stats() != slow.Stats() {
			t.Errorf("countdown %d: stats %+v, per-op %+v", n, fast.Stats(), slow.Stats())
		}
		if fast.Hash() != slow.Hash() || fast.Hash() != fast.recomputeHash() {
			t.Errorf("countdown %d: hash %#x, per-op %#x, recomputed %#x", n, fast.Hash(), slow.Hash(), fast.recomputeHash())
		}
		if !bytes.Equal(fast.data, slow.data) {
			t.Errorf("countdown %d: image diverged", n)
		}
		if !reflect.DeepEqual(fast.allotWear, slow.allotWear) {
			t.Errorf("countdown %d: wear %v, per-op %v", n, fast.allotWear, slow.allotWear)
		}
	}
}

// Committing through any one grouped member commits the whole group.
func TestCommitGroupMemberCommitCommitsAll(t *testing.T) {
	m := New(1024)
	g, err := NewCommitGroup(m, "t", "grp")
	if err != nil {
		t.Fatal(err)
	}
	c1 := MustAllocCommitted(m, "t", "one", 8)
	c2 := MustAllocCommitted(m, "t", "two", 8)
	c1.Join(g)
	c2.Join(g)
	c1.WriteUint64(0, 1)
	c2.WriteUint64(0, 2)
	c1.Commit() // member commit = group commit
	c1.Reopen()
	c2.Reopen()
	if c1.ReadUint64(0) != 1 || c2.ReadUint64(0) != 2 {
		t.Fatalf("member commit did not persist the group: %d / %d", c1.ReadUint64(0), c2.ReadUint64(0))
	}
}

// Join preserves the region's committed image regardless of the group
// selector's current value.
func TestJoinPreservesCommittedImage(t *testing.T) {
	m := New(1024)
	g, err := NewCommitGroup(m, "t", "grp")
	if err != nil {
		t.Fatal(err)
	}
	// Flip the group selector once so it disagrees with the region's
	// private selector at join time.
	c0 := MustAllocCommitted(m, "t", "zero", 8)
	c0.Join(g)
	c0.WriteUint64(0, 7)
	g.Commit()

	c := MustAllocCommitted(m, "t", "late", 8)
	c.WriteUint64(0, 55)
	c.Commit()
	c.Join(g)
	c.Reopen()
	if got := c.ReadUint64(0); got != 55 {
		t.Fatalf("committed image lost across Join: %d", got)
	}
}

// Var.Set is a raw eight-byte store and shares the tearing behaviour of
// Region.Put64: a crash after any interior byte leaves a mixed image. The
// doc comment on Var promises exactly this — multi-variable consistency
// must go through Committed.
func TestVarSetTearsAtEveryByteBoundary(t *testing.T) {
	for point := 1; point < 8; point++ {
		m := New(64)
		v := MustAllocVar[uint64](m, "t", "x")
		v.Set(0xAAAAAAAAAAAAAAAA)
		m.SetCrashHook(point, func() { panic(crash{}) })
		if !crashing(func() { v.Set(0x5555555555555555) }) {
			t.Fatalf("crash hook did not fire at byte %d", point)
		}
		got := v.Get()
		if got == 0xAAAAAAAAAAAAAAAA || got == 0x5555555555555555 {
			t.Fatalf("crash at byte %d: image %#x not torn — the crash landed outside the store", point, got)
		}
		// The torn image must be the little-endian prefix of the new value
		// over the old one: new bytes up to the crash point, old after.
		want := uint64(0)
		for i := 0; i < 8; i++ {
			b := byte(0xAA)
			if i < point {
				b = 0x55
			}
			want |= uint64(b) << (8 * i)
		}
		if got != want {
			t.Fatalf("crash at byte %d: image %#x, want torn %#x", point, got, want)
		}
	}
}

// SetByteAt is a single-byte store: it either happens entirely or not at
// all. A crash scheduled on the write itself fires before the byte lands;
// one scheduled later never exposes a partial image, because there is none.
func TestSetByteAtAtomic(t *testing.T) {
	m := New(64)
	r := m.MustAlloc("t", "x", 1)
	r.SetByteAt(0, 0xAA)
	m.SetCrashHook(1, func() { panic(crash{}) })
	if !crashing(func() { r.SetByteAt(0, 0x55) }) {
		t.Fatal("crash hook did not fire on the byte store")
	}
	// The crash hook fires after the byte is durable (power dies at the end
	// of the store): the image must hold exactly the new byte — the old one
	// is equally legal on real hardware but this simulator defines
	// byte-granularity durability, and the explorer's oracles rely on it.
	if got := r.ByteAt(0); got != 0x55 {
		t.Fatalf("single-byte store not durable across crash: %#x", got)
	}
}

// A three-member group modelling the OTA layout: control words, live data,
// and a staging area whose contents ride along every group commit but are
// never promoted on their own. A crash at every byte offset of the commit
// sequence must leave the trio exactly-old or exactly-new together, and a
// rollback — torn commit or explicit Revert — must discard the staged image
// byte-exactly.
func TestCommitGroupStagingRollbackByteExact(t *testing.T) {
	const metaN, dataN, stageN = 16, 24, 32
	pattern := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	oldImgs := [][]byte{pattern(0x11, metaN), pattern(0x22, dataN), pattern(0x33, stageN)}
	newImgs := [][]byte{pattern(0x44, metaN), pattern(0x55, dataN), pattern(0x66, stageN)}
	build := func() (*Memory, *CommitGroup, [3]*Committed) {
		m := New(4096)
		g := MustNewCommitGroup(m, "t", "grp")
		meta := MustAllocCommitted(m, "t", "meta", metaN)
		data := MustAllocCommitted(m, "t", "data", dataN)
		staging := MustAllocCommitted(m, "t", "staging", stageN)
		meta.Join(g)
		data.Join(g)
		staging.Join(g)
		cs := [3]*Committed{meta, data, staging}
		for i, c := range cs {
			c.Write(0, oldImgs[i])
		}
		g.Commit()
		return m, g, cs
	}

	// The group commit writes every member's full shadow image in join
	// order, then the one-byte selector flip.
	total := metaN + dataN + stageN + 1
	sawOld, sawNew := false, false
	for point := 1; point <= total; point++ {
		m, g, cs := build()
		for i, c := range cs {
			c.Write(0, newImgs[i])
		}
		m.SetCrashHook(point, func() { panic(crash{}) })
		if !crashing(func() { g.Commit() }) {
			t.Fatalf("crash hook did not fire at byte %d of %d", point, total)
		}
		m.SetCrashHook(0, nil)
		for _, c := range cs {
			c.Reopen()
		}
		// Classify by the first member, then require every member — the
		// never-activated staging region included — to agree byte-exactly.
		got0 := make([]byte, metaN)
		cs[0].Read(0, got0)
		var want [][]byte
		switch {
		case bytes.Equal(got0, oldImgs[0]):
			want, sawOld = oldImgs, true
		case bytes.Equal(got0, newImgs[0]):
			want, sawNew = newImgs, true
		default:
			t.Fatalf("crash byte %d: meta image torn: %x", point, got0)
		}
		for i, c := range cs {
			got := make([]byte, c.Size())
			c.Read(0, got)
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("crash byte %d: member %d diverged from the group: %x", point, i, got)
			}
		}
	}
	// Only the crash on the selector byte itself lands new; everything
	// before it must roll back. Both terminal images must have been seen.
	if !sawOld || !sawNew {
		t.Fatalf("crash sweep missed a terminal image: old=%v new=%v", sawOld, sawNew)
	}

	// Explicit rollback: a committed-but-regretted group state reverts in
	// one selector flip; after Reopen, both the stages and the committed
	// images of all members — staging included — are byte-identical to the
	// pre-commit baseline.
	_, g, cs := build()
	for i, c := range cs {
		c.Write(0, newImgs[i])
	}
	g.Commit()
	g.Revert()
	for _, c := range cs {
		c.Reopen()
	}
	for i, c := range cs {
		staged := make([]byte, c.Size())
		c.Read(0, staged)
		if !bytes.Equal(staged, oldImgs[i]) {
			t.Fatalf("revert: member %d stage %x, want baseline %x", i, staged, oldImgs[i])
		}
		committed := make([]byte, c.Size())
		c.ReadCommitted(committed)
		if !bytes.Equal(committed, oldImgs[i]) {
			t.Fatalf("revert: member %d committed image %x, want baseline %x", i, committed, oldImgs[i])
		}
	}
}
