package nvm

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// imageHash computes the fingerprint from scratch over a copy of an image:
// the XOR of mixWord over its aligned words, a partial last word padded
// with zeros.
func imageHash(img []byte) uint64 {
	var h uint64
	for w := 0; w < len(img); w += 8 {
		var word [8]byte
		copy(word[:], img[w:])
		h ^= mixWord(w, binary.LittleEndian.Uint64(word[:]))
	}
	return h
}

// TestFlipBitPastAllocations flips the last bit of the image, past every
// allocation, on memories whose size is and is not a whole number of
// words: Hash must move exactly as a from-scratch recompute says, the
// flipped byte must read back, and flipping the bit back must restore the
// old Hash.
func TestFlipBitPastAllocations(t *testing.T) {
	for _, size := range []int{1021, 4096, 256 * 1024} {
		m := New(size)
		r := m.MustAlloc("app", "buf", 100)
		r.Write(0, bytes.Repeat([]byte{0xa5}, 100))
		before := m.Hash()
		if want := imageHash(Image(m)); before != want {
			t.Fatalf("size %d: hash %#x before the flip, recomputed %#x", size, before, want)
		}
		last := m.Size() - 1
		m.FlipBit(last, 7)
		img := Image(m)
		if len(img) != size || img[last] != 0x80 {
			t.Fatalf("size %d: image of %d bytes, last byte %#x after the flip", size, len(img), img[last])
		}
		got := m.Hash()
		if want := imageHash(img); got != want || got == before {
			t.Fatalf("size %d: hash %#x after the flip, recomputed %#x, before %#x", size, got, want, before)
		}
		m.FlipBit(last, 7)
		if got := m.Hash(); got != before {
			t.Fatalf("size %d: hash %#x after flipping back, want %#x", size, got, before)
		}
	}
}

// TestAllocPastCapacityError pins the out-of-memory error text, which
// names the request, its owner and name, and the bytes the bump allocator
// had handed out, padding included, of the capacity.
func TestAllocPastCapacityError(t *testing.T) {
	m := New(1024)
	m.MustAlloc("app", "buf", 1001) // the bump pointer pads to 1008
	for _, c := range []struct {
		alloc func() error
		want  string
	}{
		{func() error { _, err := m.Alloc("monitor", "fsm", 17); return err },
			"nvm: out of memory allocating 17 bytes for monitor/fsm (used 1008 of 1024)"},
		{func() error { _, err := AllocCommitted(m, "monitor", "state", 16); return err },
			"nvm: out of memory allocating 16 bytes for monitor/state.b (used 1024 of 1024)"},
		{func() error { _, err := AllocVar[int](m, "runtime", "seq"); return err },
			"nvm: out of memory allocating 8 bytes for runtime/seq (used 1024 of 1024)"},
		{func() error { _, err := NewCommitGroup(m, "runtime", "boundary"); return err },
			"nvm: out of memory allocating 1 bytes for runtime/boundary.sel (used 1024 of 1024)"},
	} {
		err := c.alloc()
		if err == nil || err.Error() != c.want {
			t.Errorf("got error %v, want %q", err, c.want)
		}
	}
	big := New(256 * 1024)
	if _, err := big.Alloc("ota", "staging", 256*1024+1); err == nil ||
		err.Error() != "nvm: out of memory allocating 262145 bytes for ota/staging (used 0 of 262144)" {
		t.Errorf("got error %v for an allocation past an empty image", err)
	}
}
