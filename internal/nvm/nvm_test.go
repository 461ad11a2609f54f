package nvm

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

type crash struct{}

// crashing runs f and reports whether it was interrupted by the crash hook.
func crashing(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crash); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}

func TestAllocAndFootprint(t *testing.T) {
	m := New(1024)
	if _, err := m.Alloc("runtime", "a", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc("monitor", "b", 200); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc("runtime", "c", 50); err != nil {
		t.Fatal(err)
	}
	if got := m.FootprintBy("runtime"); got != 150 {
		t.Fatalf("runtime footprint %d, want 150", got)
	}
	if got := m.FootprintBy("monitor"); got != 200 {
		t.Fatalf("monitor footprint %d, want 200", got)
	}
	if got := m.Used(); got != 350 {
		t.Fatalf("Used = %d, want 350", got)
	}
	owners := m.Owners()
	if len(owners) != 2 || owners[0] != "monitor" || owners[1] != "runtime" {
		t.Fatalf("Owners = %v", owners)
	}
	if got := len(m.Allocations()); got != 3 {
		t.Fatalf("Allocations len = %d, want 3", got)
	}
}

// TestAllocationNames checks the names the allocation table joins on
// demand: a committed region's buffers and selector and a commit group's
// selector carry their suffixes in Allocations and Region.Name.
func TestAllocationNames(t *testing.T) {
	m := New(1024)
	r := m.MustAlloc("app", "raw", 4)
	c := MustAllocCommitted(m, "app", "store", 8)
	MustNewCommitGroup(m, "runtime", "boundary")
	var names []string
	for _, a := range m.Allocations() {
		names = append(names, a.Owner+"/"+a.Name)
	}
	want := []string{"app/raw", "app/store.a", "app/store.b", "app/store.sel", "runtime/boundary.sel"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("Allocations names %v, want %v", names, want)
	}
	if r.Name() != "raw" || c.a.Name() != "store.a" || c.b.Name() != "store.b" || c.sel.Name() != "store.sel" {
		t.Fatalf("Region names %q %q %q %q", r.Name(), c.a.Name(), c.b.Name(), c.sel.Name())
	}
}

// TestOwnerTotalsMatchesPerOwner checks OwnerTotals against Owners,
// FootprintBy and WearOf, including after a reboot whose boot re-allocates
// only part of the previous layout.
func TestOwnerTotalsMatchesPerOwner(t *testing.T) {
	m := New(1024)
	boot := func(full bool) {
		m.MustAlloc("runtime", "a", 16).Write(0, make([]byte, 10))
		c := MustAllocCommitted(m, "monitor", "m", 8)
		c.Write(0, []byte{1, 2, 3})
		c.Commit()
		if full {
			m.MustAlloc("app", "z", 8).WriteUint64(0, 7)
		}
	}
	check := func(stage string) {
		fp, wear := map[string]int{}, map[string]int64{}
		m.OwnerTotals(fp, wear)
		owners := m.Owners()
		if len(fp) != len(owners) || len(wear) != len(owners) {
			t.Fatalf("%s: OwnerTotals keys %v %v, owners %v", stage, fp, wear, owners)
		}
		for _, o := range owners {
			if fp[o] != m.FootprintBy(o) || wear[o] != m.WearOf(o) {
				t.Fatalf("%s: owner %s: OwnerTotals (%d, %d), per owner (%d, %d)",
					stage, o, fp[o], wear[o], m.FootprintBy(o), m.WearOf(o))
			}
		}
	}
	boot(true)
	check("first boot")
	m.Reboot()
	boot(false)
	check("partial reboot")
}

func TestAllocErrors(t *testing.T) {
	m := New(16)
	if _, err := m.Alloc("x", "neg", -1); err == nil {
		t.Error("negative alloc accepted")
	}
	if _, err := m.Alloc("x", "zero", 0); err == nil {
		t.Error("zero alloc accepted")
	}
	if _, err := m.Alloc("x", "big", 17); err == nil {
		t.Error("oversized alloc accepted")
	}
	if _, err := m.Alloc("x", "fit", 16); err != nil {
		t.Errorf("exact-fit alloc failed: %v", err)
	}
	if _, err := m.Alloc("x", "extra", 1); err == nil {
		t.Error("alloc in full memory accepted")
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestRegionRoundTrip(t *testing.T) {
	m := New(64)
	r := m.MustAlloc("t", "r", 32)
	src := []byte("hello fram")
	r.Write(3, src)
	dst := make([]byte, len(src))
	r.Read(3, dst)
	if !bytes.Equal(src, dst) {
		t.Fatalf("read back %q, want %q", dst, src)
	}
}

func TestRegionUint64(t *testing.T) {
	m := New(64)
	r := m.MustAlloc("t", "r", 16)
	r.WriteUint64(8, 0xdeadbeefcafe)
	if got := r.ReadUint64(8); got != 0xdeadbeefcafe {
		t.Fatalf("ReadUint64 = %#x", got)
	}
}

func TestRegionBoundsPanic(t *testing.T) {
	m := New(64)
	r := m.MustAlloc("t", "r", 8)
	for _, f := range []func(){
		func() { r.Read(1, make([]byte, 8)) },
		func() { r.Write(-1, []byte{0}) },
		func() { r.ReadUint64(1) },
		func() { r.WriteUint64(8, 0) },
		func() { r.ByteAt(8) },
		func() { r.SetByteAt(100, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-bounds access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	m := New(64)
	a := m.MustAlloc("t", "a", 8)
	b := m.MustAlloc("t", "b", 8)
	a.WriteUint64(0, 1)
	b.WriteUint64(0, 2)
	if a.ReadUint64(0) != 1 || b.ReadUint64(0) != 2 {
		t.Fatal("adjacent regions overlap")
	}
}

func TestStatsCounting(t *testing.T) {
	m := New(64)
	r := m.MustAlloc("t", "r", 16)
	m.ResetStats()
	r.Write(0, []byte{1, 2, 3})
	r.Read(0, make([]byte, 2))
	s := m.Stats()
	if s.Writes != 1 || s.BytesWritten != 3 || s.Reads != 1 || s.BytesRead != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestVarScalars(t *testing.T) {
	m := New(256)
	vi := MustAllocVar[int64](m, "t", "i")
	vi.Set(-42)
	if vi.Get() != -42 {
		t.Fatalf("int64 var = %d", vi.Get())
	}
	vu := MustAllocVar[uint64](m, "t", "u")
	vu.Set(1 << 60)
	if vu.Get() != 1<<60 {
		t.Fatalf("uint64 var = %d", vu.Get())
	}
	vf := MustAllocVar[float64](m, "t", "f")
	vf.Set(36.6)
	if vf.Get() != 36.6 {
		t.Fatalf("float64 var = %g", vf.Get())
	}
	vb := MustAllocVar[bool](m, "t", "b")
	vb.Set(true)
	if !vb.Get() {
		t.Fatal("bool var lost true")
	}
	vb.Set(false)
	if vb.Get() {
		t.Fatal("bool var lost false")
	}
	vn := MustAllocVar[int](m, "t", "n")
	vn.Set(-7)
	if vn.Get() != -7 {
		t.Fatalf("int var = %d", vn.Get())
	}
	v32 := MustAllocVar[int32](m, "t", "i32")
	v32.Set(-77)
	if v32.Get() != -77 {
		t.Fatalf("int32 var = %d", v32.Get())
	}
	vu32 := MustAllocVar[uint32](m, "t", "u32")
	vu32.Set(99)
	if vu32.Get() != 99 {
		t.Fatalf("uint32 var = %d", vu32.Get())
	}
}

type namedTime int64 // mimics simclock.Time

func TestVarNamedType(t *testing.T) {
	m := New(64)
	v := MustAllocVar[namedTime](m, "t", "time")
	v.Set(namedTime(-123456))
	if v.Get() != -123456 {
		t.Fatalf("named var = %d", v.Get())
	}
}

// Property: any int64 round-trips through a Var.
func TestVarRoundTripProperty(t *testing.T) {
	m := New(64)
	v := MustAllocVar[int64](m, "t", "x")
	f := func(x int64) bool {
		v.Set(x)
		return v.Get() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any float64 bit pattern round-trips (including negatives, tiny
// denormals; NaN excluded since NaN != NaN).
func TestVarFloatRoundTripProperty(t *testing.T) {
	m := New(64)
	v := MustAllocVar[float64](m, "t", "x")
	f := func(x float64) bool {
		v.Set(x)
		return v.Get() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommittedBasics(t *testing.T) {
	m := New(256)
	c := MustAllocCommitted(m, "task", "out", 16)
	c.WriteUint64(0, 111)
	c.WriteUint64(8, 222)
	c.Commit()
	if c.ReadUint64(0) != 111 || c.ReadUint64(8) != 222 {
		t.Fatal("committed values lost after commit")
	}
	// Stage but do not commit; Reopen must roll back.
	c.WriteUint64(0, 999)
	c.Reopen()
	if got := c.ReadUint64(0); got != 111 {
		t.Fatalf("uncommitted write survived reopen: %d", got)
	}
}

func TestCommittedBoundsPanic(t *testing.T) {
	m := New(256)
	c := MustAllocCommitted(m, "task", "out", 8)
	for _, f := range []func(){
		func() { c.Read(1, make([]byte, 8)) },
		func() { c.Write(-1, []byte{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-bounds committed access did not panic")
				}
			}()
			f()
		}()
	}
}

// The central crash-safety property: a power failure after ANY byte written
// during Commit leaves the region holding either the complete old image or
// the complete new image.
func TestCommittedAtomicityAtEveryCrashPoint(t *testing.T) {
	const size = 24
	// A commit writes size payload bytes plus one selector byte.
	for point := 1; point <= size+1; point++ {
		m := New(1024)
		c := MustAllocCommitted(m, "task", "out", size)
		old := bytes.Repeat([]byte{0xAA}, size)
		c.Write(0, old)
		c.Commit()

		newer := bytes.Repeat([]byte{0x55}, size)
		c.Write(0, newer)
		m.SetCrashHook(point, func() { panic(crash{}) })
		crashed := crashing(func() { c.Commit() })
		m.SetCrashHook(0, nil)

		c.Reopen() // reboot
		got := make([]byte, size)
		c.Read(0, got)
		switch {
		case bytes.Equal(got, old):
			if !crashed {
				t.Fatalf("crash point %d: commit completed but old image visible", point)
			}
		case bytes.Equal(got, newer):
			// Fine: crash landed after the selector flip (or commit ran to
			// completion when point > bytes written).
		default:
			t.Fatalf("crash point %d: torn image %x", point, got)
		}
	}
}

// Property: repeated commit/reopen cycles with random payloads always
// surface the last committed payload.
func TestCommittedLastWriteWinsProperty(t *testing.T) {
	f := func(payloads [][8]byte) bool {
		m := New(4096)
		c := MustAllocCommitted(m, "t", "x", 8)
		var last [8]byte
		for _, p := range payloads {
			c.Write(0, p[:])
			c.Commit()
			last = p
			c.Reopen()
			got := make([]byte, 8)
			c.Read(0, got)
			if !bytes.Equal(got, last[:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashHookTornVarWrite(t *testing.T) {
	m := New(64)
	v := MustAllocVar[uint64](m, "t", "x")
	v.Set(0xFFFFFFFFFFFFFFFF)
	m.SetCrashHook(3, func() { panic(crash{}) })
	if !crashing(func() { v.Set(0) }) {
		t.Fatal("crash hook did not fire")
	}
	// A torn write: first 3 bytes zeroed, rest still 0xFF.
	got := v.Get()
	if got == 0 || got == 0xFFFFFFFFFFFFFFFF {
		t.Fatalf("expected torn value, got %#x", got)
	}
}

func TestWearAccounting(t *testing.T) {
	m := New(1024)
	a := m.MustAlloc("runtime", "a", 64)
	b := m.MustAlloc("monitor", "b", 64)
	a.Write(0, make([]byte, 10))
	a.Write(5, make([]byte, 3))
	b.WriteUint64(0, 42)
	if got := m.WearOf("runtime"); got != 13 {
		t.Fatalf("runtime wear = %d, want 13", got)
	}
	if got := m.WearOf("monitor"); got != 8 {
		t.Fatalf("monitor wear = %d, want 8", got)
	}
	if got := m.WearOf("nobody"); got != 0 {
		t.Fatalf("unknown owner wear = %d", got)
	}
	// Reads do not wear.
	a.Read(0, make([]byte, 20))
	if got := m.WearOf("runtime"); got != 13 {
		t.Fatalf("read changed wear: %d", got)
	}
}

// Property: wear per owner equals the exact number of bytes written into
// that owner's regions, for arbitrary interleavings.
func TestWearMatchesWritesProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := New(4096)
		regions := []*Region{
			m.MustAlloc("x", "r0", 32),
			m.MustAlloc("y", "r1", 32),
			m.MustAlloc("x", "r2", 32),
		}
		want := map[string]int64{}
		owners := []string{"x", "y", "x"}
		for _, op := range ops {
			ri := int(op) % len(regions)
			n := int(op/8)%16 + 1
			regions[ri].Write(0, make([]byte, n))
			want[owners[ri]] += int64(n)
		}
		return m.WearOf("x") == want["x"] && m.WearOf("y") == want["y"]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
