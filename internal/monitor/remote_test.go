package monitor

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

func testMCU(t *testing.T, mem *nvm.Memory) *device.MCU {
	t.Helper()
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, &energy.Continuous{}, device.MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	return mcu
}

// scriptedLink fails the first fails[seq] attempts of each sequence
// number, then delivers with dup duplicates.
type scriptedLink struct {
	fails    map[uint64]int
	dup      int
	attempts []int // attempt numbers observed, in order
}

func (l *scriptedLink) Exchange(seq uint64, attempt int) (bool, int) {
	l.attempts = append(l.attempts, attempt)
	if l.fails[seq] > 0 {
		l.fails[seq]--
		return false, 0
	}
	return true, l.dup
}

// deadLink loses everything.
type deadLink struct{ attempts int }

func (l *deadLink) Exchange(uint64, int) (bool, int) { l.attempts++; return false, 0 }

func TestRemoteRetriesThenDelivers(t *testing.T) {
	mem := nvm.New(64 * 1024)
	set := compileSet(t, mem, `accel { maxTries: 3 onFail: skipPath; }`)
	mcu := testMCU(t, mem)
	link := &scriptedLink{fails: map[uint64]int{1: 2}}
	rem := NewRemote(set, mcu)
	rem.SetLink(link)

	fs, err := rem.Deliver(startEv(1, "accel", 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("unexpected failures %v", fs)
	}
	if rem.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", rem.Retries())
	}
	if rem.Degraded() != 0 {
		t.Fatalf("degraded = %d, want 0", rem.Degraded())
	}
	// Attempt numbers passed to the link are 1-based and increasing.
	want := []int{1, 2, 3}
	if len(link.attempts) != len(want) {
		t.Fatalf("attempts = %v, want %v", link.attempts, want)
	}
	for i := range want {
		if link.attempts[i] != want[i] {
			t.Fatalf("attempts = %v, want %v", link.attempts, want)
		}
	}
}

func TestRemoteBackoffWaitsBetweenRetries(t *testing.T) {
	mem := nvm.New(64 * 1024)
	set := compileSet(t, mem, `accel { maxTries: 3 onFail: skipPath; }`)
	mcu := testMCU(t, mem)
	rem := NewRemote(set, mcu)
	rem.SetLink(&scriptedLink{fails: map[uint64]int{1: 2}})
	rem.SetRetryPolicy(RetryPolicy{MaxRetries: 2, Backoff: 5 * simclock.Millisecond, Multiplier: 2})

	before := mcu.Now()
	if _, err := rem.Deliver(startEv(1, "accel", 0, 2)); err != nil {
		t.Fatal(err)
	}
	elapsed := simclock.Duration(mcu.Now() - before)
	// 3 transmissions at 3 ms, exponential backoff 5 ms + 10 ms, one
	// verdict reception at 2 ms.
	want := 3*DefaultRadioCost().TxLatency + 15*simclock.Millisecond + DefaultRadioCost().RxLatency
	if elapsed != want {
		t.Fatalf("elapsed %v, want %v (backoff not applied)", elapsed, want)
	}
}

func TestRemoteDegradesToLocalOnDeadLink(t *testing.T) {
	mem := nvm.New(64 * 1024)
	set := compileSet(t, mem, `accel { maxTries: 2 onFail: skipPath; }`)
	mcu := testMCU(t, mem)
	link := &deadLink{}
	rem := NewRemote(set, mcu)
	rem.SetLink(link)
	rem.SetRetryPolicy(RetryPolicy{MaxRetries: 1, Backoff: simclock.Millisecond, Multiplier: 2})

	// Local fallback still evaluates: the third start must trip maxTries
	// exactly as an on-device set would.
	for i := uint64(1); i <= 2; i++ {
		fs, err := rem.Deliver(startEv(i, "accel", simclock.Duration(i)*simclock.Second, 2))
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) != 0 {
			t.Fatalf("event %d: failures %v", i, fs)
		}
	}
	fs, err := rem.Deliver(startEv(3, "accel", 10*simclock.Second, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("dead-link delivery lost monitor coverage: failures %v", fs)
	}
	if rem.Degraded() != 3 {
		t.Fatalf("degraded = %d, want 3", rem.Degraded())
	}
	if link.attempts != 6 {
		t.Fatalf("link attempts = %d, want 6 (2 per event)", link.attempts)
	}
}

func TestRemoteDuplicateDeliveriesAreIdempotent(t *testing.T) {
	mem := nvm.New(64 * 1024)
	set := compileSet(t, mem, `accel { maxTries: 3 onFail: skipPath; }`)
	mcu := testMCU(t, mem)
	rem := NewRemote(set, mcu)
	rem.SetLink(&scriptedLink{dup: 2})

	// Each event is duplicated twice by the channel; the per-sequence
	// idempotence must absorb them, so maxTries still needs 4 distinct
	// starts to fire — duplicates must not step the counter.
	for i := uint64(1); i <= 3; i++ {
		fs, err := rem.Deliver(startEv(i, "accel", simclock.Duration(i)*simclock.Second, 2))
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) != 0 {
			t.Fatalf("event %d: premature failure %v (duplicates double-counted)", i, fs)
		}
	}
	fs, err := rem.Deliver(startEv(4, "accel", 10*simclock.Second, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("fourth start should trip maxTries: %v", fs)
	}
	if rem.Duplicates() != 8 {
		t.Fatalf("duplicates = %d, want 8 (2 per delivery)", rem.Duplicates())
	}
}

// recordingLink delivers everything, logs the sequence numbers it sees,
// and duplicates each delivery dup times.
type recordingLink struct {
	seqs []uint64
	dup  int
}

func (l *recordingLink) Exchange(seq uint64, attempt int) (bool, int) {
	l.seqs = append(l.seqs, seq)
	return true, l.dup
}

func TestControlExchangesUseDistinctSequences(t *testing.T) {
	mem := nvm.New(64 * 1024)
	set := compileSet(t, mem, `accel { maxTries: 3 onFail: skipPath; }`)
	mcu := testMCU(t, mem)
	link := &recordingLink{dup: 1}
	rem := NewRemote(set, mcu)
	rem.SetLink(link)

	// An event delivery plus two path re-initialisations through a
	// duplicating channel. Before the control sequence space existed, both
	// ResetPath commands went out as seq 0 and the receiver's per-sequence
	// idempotence could not tell the duplicated first command from the
	// distinct second one.
	if _, err := rem.Deliver(startEv(1, "accel", 0, 2)); err != nil {
		t.Fatal(err)
	}
	rem.ResetPath(2)
	rem.ResetPath(2)

	if len(link.seqs) != 3 {
		t.Fatalf("seqs = %v, want 3 exchanges", link.seqs)
	}
	ctrl1, ctrl2 := link.seqs[1], link.seqs[2]
	if ctrl1&ControlSeqBase == 0 || ctrl2&ControlSeqBase == 0 {
		t.Fatalf("control exchanges %#x, %#x missing ControlSeqBase tag", ctrl1, ctrl2)
	}
	if ctrl1 == ctrl2 {
		t.Fatalf("two distinct control exchanges share seq %#x — duplicates are indistinguishable from distinct commands", ctrl1)
	}
	if ctrl2 <= ctrl1 {
		t.Fatalf("control sequences not monotonic: %#x then %#x", ctrl1, ctrl2)
	}
	if link.seqs[0]&ControlSeqBase != 0 {
		t.Fatalf("event seq %#x landed in the control space", link.seqs[0])
	}
}

func TestRetryPolicyMultiplierClamping(t *testing.T) {
	// The doc promises Multiplier "defaults to 2 when zero or less than 1":
	// a sub-1 multiplier must never shrink backoff into a retry storm. All
	// three cases below must produce the same 5 ms → 10 ms schedule as an
	// explicit Multiplier of 2; Multiplier 1 keeps backoff flat at 5 ms.
	cases := []struct {
		mult float64
		want simclock.Duration // total backoff across two waits
	}{
		{0, 15 * simclock.Millisecond},   // clamped to 2: 5 + 10
		{0.5, 15 * simclock.Millisecond}, // clamped to 2: 5 + 10, never 5 + 2.5
		{1, 10 * simclock.Millisecond},   // legal flat backoff: 5 + 5
	}
	for _, tc := range cases {
		mem := nvm.New(64 * 1024)
		set := compileSet(t, mem, `accel { maxTries: 3 onFail: skipPath; }`)
		mcu := testMCU(t, mem)
		rem := NewRemote(set, mcu)
		rem.SetLink(&scriptedLink{fails: map[uint64]int{1: 2}})
		rem.SetRetryPolicy(RetryPolicy{MaxRetries: 2, Backoff: 5 * simclock.Millisecond, Multiplier: tc.mult})

		before := mcu.Now()
		if _, err := rem.Deliver(startEv(1, "accel", 0, 2)); err != nil {
			t.Fatal(err)
		}
		elapsed := simclock.Duration(mcu.Now() - before)
		fixed := 3*DefaultRadioCost().TxLatency + DefaultRadioCost().RxLatency
		if got := elapsed - fixed; got != tc.want {
			t.Errorf("Multiplier=%v: total backoff %v, want %v", tc.mult, got, tc.want)
		}
	}
}

func TestRemotePerfectLinkNeverRetries(t *testing.T) {
	mem := nvm.New(64 * 1024)
	set := compileSet(t, mem, `accel { maxTries: 3 onFail: skipPath; }`)
	mcu := testMCU(t, mem)
	rem := NewRemote(set, mcu)

	if _, err := rem.Deliver(startEv(1, "accel", 0, 2)); err != nil {
		t.Fatal(err)
	}
	if rem.Retries() != 0 || rem.Degraded() != 0 || rem.Duplicates() != 0 {
		t.Fatalf("perfect link produced retries=%d degraded=%d duplicates=%d",
			rem.Retries(), rem.Degraded(), rem.Duplicates())
	}
}
