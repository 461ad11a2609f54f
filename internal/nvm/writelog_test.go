package nvm

import (
	"bytes"
	"fmt"
	"testing"
)

// logRig is a small memory layout with every kind of write: raw region
// stores, a private committed region, and a two-member commit group.
type logRig struct {
	mem    *Memory
	raw    *Region
	priv   *Committed
	g1, g2 *Committed
	group  *CommitGroup
}

func newLogRig() *logRig {
	m := New(4096)
	r := &logRig{mem: m, raw: m.MustAlloc("app", "raw", 24)}
	r.priv = MustAllocCommitted(m, "runtime", "priv", 32)
	r.g1 = MustAllocCommitted(m, "monitor", "g1", 16)
	r.g2 = MustAllocCommitted(m, "monitor", "g2", 40)
	r.group = MustNewCommitGroup(m, "runtime", "grp")
	r.g1.Join(r.group)
	r.g2.Join(r.group)
	return r
}

// step runs workload step i: a deterministic mix of byte, word and slice
// stores, private and group commits, and committed reads.
func (r *logRig) step(i int) {
	switch i % 5 {
	case 0:
		r.raw.SetByteAt(i%24, byte(i))
	case 1:
		r.raw.WriteUint64(8*(i%3), uint64(i)*0x9e3779b97f4a7c15)
	case 2:
		r.priv.WriteUint64(8*(i%4), uint64(i))
		r.priv.Commit()
	case 3:
		r.g1.WriteUint64(8*(i%2), uint64(i)<<8)
		r.g2.Write(i%32, []byte{byte(i), byte(i >> 1)})
		r.group.Commit()
	case 4:
		var buf [16]byte
		r.g1.ReadCommitted(buf[:])
		r.raw.Write(i%16, []byte(fmt.Sprint(i)))
	}
}

// state renders everything Restore must reproduce; the image enters
// through its hash, recomputed from the bytes.
func (r *logRig) state() string {
	m := r.mem
	return fmt.Sprintf("stats %+v hash %#x/%#x wear app=%d runtime=%d monitor=%d",
		m.Stats(), m.Hash(), m.recomputeHash(), m.WearOf("app"), m.WearOf("runtime"), m.WearOf("monitor"))
}

const logRigSteps = 400

// Restoring the log at write k must give the memory a run crashed right
// after write k leaves: the image, the counters and the per-allocation
// wear. Committed regions must then commit correctly on the restored
// image.
func TestRestoreMatchesEveryWrite(t *testing.T) {
	ref := newLogRig()
	var l WriteLog
	ref.mem.Log(&l, nil)
	for i := 0; i < logRigSteps; i++ {
		ref.step(i)
	}
	ref.mem.StopLog()
	if l.Writes() < 3*keyEvery {
		t.Fatalf("workload logged %d writes, want several keyframes", l.Writes())
	}
	for k := 0; k <= l.Writes(); k++ {
		crashed := newLogRig()
		if k > 0 {
			crashed.mem.SetWriteCrashHook(k, func() { panic(crash{}) })
			crashing(func() {
				for i := 0; i < logRigSteps; i++ {
					crashed.step(i)
				}
			})
		}

		restored := newLogRig()
		if err := restored.mem.Restore(&l, k); err != nil {
			t.Fatal(err)
		}
		if a, b := crashed.state(), restored.state(); a != b || !bytes.Equal(Image(crashed.mem), Image(restored.mem)) {
			t.Fatalf("write %d:\n crashed  %s\n restored %s", k, a, b)
		}
		for _, r := range []*logRig{crashed, restored} {
			r.priv.Reopen()
			r.g1.Reopen()
			r.g2.Reopen()
			r.priv.WriteUint64(0, 0xfeed)
			r.priv.Commit()
			r.g2.WriteUint64(32, 0xbeef)
			r.group.Commit()
		}
		if a, b := crashed.state(), restored.state(); a != b || !bytes.Equal(Image(crashed.mem), Image(restored.mem)) {
			t.Fatalf("write %d, after a commit on the restored image:\n crashed  %s\n restored %s", k, a, b)
		}
	}
}

func TestRestoreRejectsOtherLayouts(t *testing.T) {
	ref := newLogRig()
	var l WriteLog
	ref.mem.Log(&l, nil)
	ref.step(0)
	ref.mem.StopLog()
	if err := New(4096).Restore(&l, 1); err == nil {
		t.Error("restore into a memory without the logged allocations succeeded")
	}
	if err := newLogRig().mem.Restore(&l, 2); err == nil {
		t.Error("restore past the logged writes succeeded")
	}
}

// A logged memory must not allocate: the restored image would have no
// region for the new allocation.
func TestLogPanicsOnAllocation(t *testing.T) {
	r := newLogRig()
	var l WriteLog
	r.mem.Log(&l, nil)
	defer func() {
		if recover() == nil {
			t.Error("allocation while logging did not panic")
		}
	}()
	r.mem.MustAlloc("app", "late", 8)
}

// Logging changes no charge: a logged run takes the per-op commit path
// instead of the one-pass one, which charges the same.
func TestLoggingLeavesChargesAlone(t *testing.T) {
	plain, logged := newLogRig(), newLogRig()
	var l WriteLog
	logged.mem.Log(&l, nil)
	for i := 0; i < logRigSteps; i++ {
		plain.step(i)
		logged.step(i)
	}
	if a, b := plain.state(), logged.state(); a != b || !bytes.Equal(Image(plain.mem), Image(logged.mem)) {
		t.Fatalf("plain  %s\nlogged %s", a, b)
	}
}
