package nvm

import (
	"sync"
	"testing"
)

// dirtyUse exercises a memory through the write path, FlipBit, and a torn
// write so the reset-on-get invariants are tested against every way bytes
// can land in the image.
func dirtyUse(t *testing.T, m *Memory) {
	t.Helper()
	r := m.MustAlloc("runtime", "ctl", 64)
	r.WriteUint64(0, 0xdeadbeefcafef00d)
	r.Put16(10, 0x1234)
	m.FlipBit(r.off+40, 3)
	c := MustAllocCommitted(m, "monitor", "fsm", 32)
	c.WriteUint64(0, 42)
	c.Commit()
	c.WriteUint64(8, 7)
	c.Commit()
	if m.Hash() == 0 {
		t.Fatal("expected nonzero hash after writes")
	}
}

func TestPooledResetMatchesFresh(t *testing.T) {
	m := NewPooled(4096)
	dirtyUse(t, m)
	m.SetWriteObserver(func() {})
	m.SetAccessObserver(func(AccessOp, int, []byte) {})
	m.SetCrashHook(1000, func() {})
	m.SetWriteCrashHook(1000, func() {})
	m.Release()

	got := NewPooled(4096)
	if got != m {
		t.Skip("pool did not recycle (GC ran); invariants untestable this round")
	}
	if !got.Recycled() {
		t.Fatal("image served from the pool does not report Recycled")
	}
	if len(got.data) != 0 {
		t.Fatalf("recycled image holds %d bytes, want none", len(got.data))
	}
	for i, b := range got.data[:cap(got.data)] {
		if b != 0 {
			t.Fatalf("recycled image dirty at offset %d: %#x", i, b)
		}
	}
	if got.Hash() != 0 || got.recomputeHash() != 0 {
		t.Fatalf("recycled hash %#x (recomputed %#x), want 0", got.Hash(), got.recomputeHash())
	}
	if got.Stats() != (Stats{}) {
		t.Fatalf("recycled stats %+v, want zero", got.Stats())
	}
	if got.Used() != 0 || len(got.Allocations()) != 0 {
		t.Fatalf("recycled allocator state: used %d, %d allocations", got.Used(), len(got.Allocations()))
	}
	if len(got.Owners()) != 0 {
		t.Fatalf("recycled wear owners %v, want none", got.Owners())
	}
	if got.WearOf("runtime") != 0 || got.WearOf("monitor") != 0 {
		t.Fatal("recycled wear accounting not cleared")
	}
	if got.crashHook != nil || got.writeCrashHook != nil || got.observer != nil || got.access != nil {
		t.Fatal("recycled hooks/observers not cleared")
	}
	// The recycled memory must behave exactly like a fresh one.
	fresh := New(4096)
	if fresh.Recycled() {
		t.Fatal("New reports Recycled")
	}
	dirtyUse(t, got)
	dirtyUse(t, fresh)
	if got.Hash() != fresh.Hash() {
		t.Fatalf("recycled hash %#x differs from fresh %#x after identical use", got.Hash(), fresh.Hash())
	}
	if got.Stats() != fresh.Stats() {
		t.Fatalf("recycled stats %+v differ from fresh %+v", got.Stats(), fresh.Stats())
	}
}

func TestReleaseIsIdempotentAndNewIsUnpooled(t *testing.T) {
	m := NewPooled(512)
	m.Release()
	m.Release() // second release must not double-Put
	a := NewPooled(512)
	b := NewPooled(512)
	if a == b {
		t.Fatal("double release put one memory into the pool twice")
	}
	fresh := New(512)
	fresh.Release() // no-op: not from the pool
	if got := NewPooled(256); got == fresh {
		t.Fatal("Release on an unpooled memory reached the pool")
	}
}

func TestPooledSizeMismatch(t *testing.T) {
	m := NewPooled(256)
	dirtyUse(t, m)
	m.Release()
	big := NewPooled(1 << 20)
	if big.Size() != 1<<20 {
		t.Fatalf("got %d-byte memory, want %d", big.Size(), 1<<20)
	}
	if big.Hash() != 0 {
		t.Fatal("fresh-after-mismatch memory has nonzero hash")
	}
}

func TestWriteFastPathMatchesTearable(t *testing.T) {
	// Same write sequence with and without an (unreached) armed crash hook;
	// the armed memory takes the tearable path throughout.
	run := func(armed bool) *Memory {
		m := New(1024)
		if armed {
			m.SetCrashHook(1<<30, func() { t.Fatal("hook must not fire") })
		}
		r := m.MustAlloc("app", "buf", 256)
		for i := 0; i < 32; i++ {
			r.WriteUint64((i%4)*8, uint64(i)*0x0101010101010101)
			r.SetByteAt(100+i, byte(i))
		}
		return m
	}
	fast, slow := run(false), run(true)
	if fast.Hash() != slow.Hash() || fast.Hash() != fast.recomputeHash() {
		t.Fatalf("hash divergence: fast %#x slow %#x recomputed %#x",
			fast.Hash(), slow.Hash(), fast.recomputeHash())
	}
	if fast.Stats() != slow.Stats() {
		t.Fatalf("stats divergence: fast %+v slow %+v", fast.Stats(), slow.Stats())
	}
	if fast.WearOf("app") != slow.WearOf("app") {
		t.Fatalf("wear divergence: fast %d slow %d", fast.WearOf("app"), slow.WearOf("app"))
	}
}

func TestOwnerAtCache(t *testing.T) {
	m := New(4096)
	regions := make([]*Region, 8)
	for i := range regions {
		regions[i] = m.MustAlloc("owner", "r", 64)
	}
	// Alternate between regions so the cache is repeatedly invalidated and
	// repopulated; wear must still attribute every byte.
	for pass := 0; pass < 3; pass++ {
		for _, r := range regions {
			r.WriteUint64(0, 1)
		}
		for i := len(regions) - 1; i >= 0; i-- {
			regions[i].WriteUint64(8, 2)
		}
	}
	if want := int64(3 * 2 * 8 * len(regions)); m.WearOf("owner") != want {
		t.Fatalf("wear %d, want %d", m.WearOf("owner"), want)
	}
}

func TestPoolConcurrentReuse(t *testing.T) {
	// Hammer get/use/release from many goroutines; -race proves no image is
	// ever shared by two holders.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := NewPooled(2048)
				r := m.MustAlloc("w", "x", 128)
				for j := 0; j < 128; j++ {
					r.SetByteAt(j, seed)
				}
				buf := make([]byte, 128)
				r.Read(0, buf)
				for j, b := range buf {
					if b != seed {
						panic("pooled image shared between goroutines: byte " +
							string(rune('0'+j%10)) + " corrupted")
					}
				}
				m.Release()
			}
		}(byte(w + 1))
	}
	wg.Wait()
}
