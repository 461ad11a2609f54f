package nvm

import (
	"fmt"
	"testing"
)

// TestHashIncrementalMatchesRecompute drives the write path through every
// accessor width plus bit flips and checks the cached fingerprint against
// a from-scratch recompute after each mutation.
func TestHashIncrementalMatchesRecompute(t *testing.T) {
	m := New(4096)
	if m.Hash() != 0 {
		t.Fatalf("zeroed memory hash = %#x, want 0", m.Hash())
	}
	r := m.MustAlloc("test", "blob", 256)

	check := func(step string) {
		t.Helper()
		if got, want := m.Hash(), m.recomputeHash(); got != want {
			t.Fatalf("%s: incremental hash %#x != recomputed %#x", step, got, want)
		}
	}

	r.Write(0, []byte{1, 2, 3, 4, 5})
	check("multi-byte write")
	r.SetByteAt(10, 0xff)
	check("single byte")
	r.Put16(20, 0xbeef)
	check("Put16")
	r.Put32(24, 0xdeadbeef)
	check("Put32")
	r.WriteUint64(32, 0x0123456789abcdef)
	check("WriteUint64")
	r.Write(0, []byte{1, 2, 3, 4, 5}) // idempotent rewrite: hash unchanged
	check("rewrite same bytes")
	r.Write(0, make([]byte, 5)) // zero back out
	check("zeroing")
	m.FlipBit(r.off+10, 3)
	check("bit flip")
	m.FlipBit(r.off+10, 3) // flip back: must cancel exactly
	check("bit flip back")
}

// TestHashDistinguishesPositionAndValue guards against a degenerate mix:
// the same byte at different offsets, and different bytes at the same
// offset, must fingerprint differently.
func TestHashDistinguishesPositionAndValue(t *testing.T) {
	a, b := New(64), New(64)
	ra := a.MustAlloc("t", "x", 16)
	rb := b.MustAlloc("t", "x", 16)

	ra.SetByteAt(0, 7)
	rb.SetByteAt(1, 7)
	if a.Hash() == b.Hash() {
		t.Fatal("same byte at different offsets hashed equal")
	}

	rb.SetByteAt(1, 0)
	rb.SetByteAt(0, 8)
	if a.Hash() == b.Hash() {
		t.Fatal("different bytes at same offset hashed equal")
	}
}

// TestHashEqualImagesEqualHashes: two memories driven to the same image
// through different write sequences must agree — the property the chaos
// explorer's state pruning relies on.
func TestHashEqualImagesEqualHashes(t *testing.T) {
	a, b := New(128), New(128)
	ra := a.MustAlloc("t", "x", 64)
	rb := b.MustAlloc("t", "x", 64)

	ra.WriteUint64(0, 0x1122334455667788)
	rb.SetByteAt(0, 0xaa) // detour through a different intermediate image
	var buf [8]byte
	ra.Read(0, buf[:])
	for i, v := range buf {
		rb.SetByteAt(i, v)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("equal images hash %#x vs %#x", a.Hash(), b.Hash())
	}
}

// TestHashConstantTime pins the clean path's O(1) contract: Hash on a large
// memory with no store since the last Hash must not allocate or touch the
// array.
func TestHashConstantTime(t *testing.T) {
	m := New(1 << 18)
	if n := testing.AllocsPerRun(100, func() { _ = m.Hash() }); n != 0 {
		t.Fatalf("Hash allocates %v per call", n)
	}
}

// TestHotPathAllocFree pins that the per-write NVM primitives the worker
// pool amplifies do not allocate.
func TestHotPathAllocFree(t *testing.T) {
	m := New(4096)
	r := m.MustAlloc("test", "hot", 64)
	var buf [8]byte
	cases := []struct {
		name string
		fn   func()
	}{
		{"SetByteAt", func() { r.SetByteAt(0, 42) }},
		{"Put16", func() { r.Put16(2, 0x1234) }},
		{"Put32", func() { r.Put32(4, 0x12345678) }},
		{"WriteUint64", func() { r.WriteUint64(8, 0x123456789abcdef0) }},
		{"ReadUint64", func() { _ = r.ReadUint64(8) }},
		{"Read", func() { r.Read(0, buf[:]) }},
		{"Write", func() { r.Write(16, buf[:]) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %v per call", c.name, n)
		}
	}
}

// TestHashFreshAtEveryWrite reads Hash after every write operation of
// private and group commits, as the chaos explorer's pruning does, and
// checks it against a from-scratch recompute: a shadow-buffer write must
// mark the cached fingerprint stale before its selector flip does.
func TestHashFreshAtEveryWrite(t *testing.T) {
	m := New(4096)
	c := MustAllocCommitted(m, "monitor", "fsm", 64)
	g := MustNewCommitGroup(m, "runtime", "boundary")
	var members [2]*Committed
	for i := range members {
		members[i] = MustAllocCommitted(m, "runtime", fmt.Sprintf("m%d", i), 32)
		members[i].Join(g)
	}
	writes := 0
	m.SetWriteObserver(func() {
		writes++
		if got, want := m.Hash(), m.recomputeHash(); got != want {
			t.Fatalf("write %d: hash %#x, recomputed %#x", writes, got, want)
		}
	})
	for i := 1; i <= 4; i++ {
		c.WriteUint64(8*(i%8), uint64(i))
		c.Commit()
		members[i%2].WriteUint64(0, uint64(i))
		g.Commit()
	}
	if writes != 4*(2+3) {
		t.Fatalf("observed %d writes, want %d", writes, 4*(2+3))
	}
}
