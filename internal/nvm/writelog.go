package nvm

import (
	"fmt"
	"math"
)

// keyEvery is the number of logged writes between two image keyframes of a
// WriteLog. Restoring the state after write k copies the keyframe at or
// before k and replays at most keyEvery-1 logged writes onto it, so the
// constant trades one image copy per keyframe against that replay.
const keyEvery = 128

// WriteLog records the writes of one run of a Memory so that the image,
// the per-allocation wear and the access counters right after any of them
// can be put into another Memory with the same allocation layout (see
// Memory.Restore). Crash explorers use it to resume a crash point from the
// state after its write instead of re-running the writes before it.
//
// It holds a keyframe every keyEvery writes (image, wear and counters) and,
// for every write, the bytes it stored and how far it moved the counters.
// A WriteLog's buffers are reused by the next Log call.
type WriteLog struct {
	after  func()
	last   Stats // the counters after the latest logged write
	ents   []logEntry
	data   []byte // the bytes every logged write stored, in write order
	frames []keyframe
	images []byte  // keyframe images, concatenated
	wear   []int64 // keyframe wear tables, concatenated
}

// logEntry is one logged write: it stored data[previous entry's end:end]
// at off, charged those bytes as wear to allocation idx, and moved the
// counters by delta since the previous write (reads in between included).
type logEntry struct {
	idx, off, end int32
	delta         [4]int32 // Reads, Writes, BytesRead, BytesWritten
}

// keyframe is the memory's state after write keyEvery*i of the log, i its
// index: the image and wear table end at imgEnd and wearEnd of the log's
// concatenated buffers.
type keyframe struct {
	stats           Stats
	imgEnd, wearEnd int
}

// Writes returns the number of logged writes.
func (l *WriteLog) Writes() int { return len(l.ents) }

// Log starts recording every write of m into l, discarding what l held.
// after, when non-nil, runs after every logged write, at the instant a
// write crash hook would fire; callers capture the rest of a crash state
// there. Logging continues until StopLog. The memory must not allocate
// while logging: a restored image has no room for a region its target
// never allocated.
func (m *Memory) Log(l *WriteLog, after func()) {
	l.after = after
	l.last = m.stats
	l.ents = l.ents[:0]
	l.data = l.data[:0]
	l.frames = l.frames[:0]
	l.images = l.images[:0]
	l.wear = l.wear[:0]
	m.keyframe(l)
	m.log = l
}

// StopLog ends the recording Log started.
func (m *Memory) StopLog() {
	if m.log != nil {
		m.log.after = nil
		m.log = nil
	}
}

// keyframe appends the memory's current state to l as its next keyframe.
func (m *Memory) keyframe(l *WriteLog) {
	l.images = append(l.images, m.data...)
	l.wear = append(l.wear, m.allotWear...)
	l.frames = append(l.frames, keyframe{stats: m.stats, imgEnd: len(l.images), wearEnd: len(l.wear)})
}

// logWrite records one completed write that stored p at off and charged
// len(p) bytes of wear to allocation idx, then runs the log's after hook.
// It is outlined so the write paths only pay a nil test when no log is
// armed.
//
//go:noinline
func (m *Memory) logWrite(idx, off int, p []byte) {
	l := m.log
	l.data = append(l.data, p...)
	s := m.stats
	l.ents = append(l.ents, logEntry{idx: int32(idx), off: int32(off), end: int32(len(l.data)),
		delta: [4]int32{delta32(s.Reads, l.last.Reads), delta32(s.Writes, l.last.Writes),
			delta32(s.BytesRead, l.last.BytesRead), delta32(s.BytesWritten, l.last.BytesWritten)}})
	l.last = s
	if len(l.ents)%keyEvery == 0 {
		m.keyframe(l)
	}
	if l.after != nil {
		l.after()
	}
}

// Restore puts m into the state the logged memory had right after its
// k-th logged write (k = 0 is the state when logging started): the image,
// the per-allocation wear and the access counters. m must have the logged
// memory's allocation layout, which every deployment of the same
// configuration has by construction.
//
// The hash cache is invalidated. Hooks and observers are untouched.
func (m *Memory) Restore(l *WriteLog, k int) error {
	if k < 0 || k > len(l.ents) {
		return fmt.Errorf("nvm: restore of write %d outside a log of %d writes", k, len(l.ents))
	}
	i := k / keyEvery
	f := l.frames[i]
	imgStart, wearStart := 0, 0
	if i > 0 {
		imgStart, wearStart = l.frames[i-1].imgEnd, l.frames[i-1].wearEnd
	}
	img, wear := l.images[imgStart:f.imgEnd], l.wear[wearStart:f.wearEnd]
	if len(wear) != len(m.allotWear) {
		return fmt.Errorf("nvm: restore into a memory with %d allocations, the log has %d", len(m.allotWear), len(wear))
	}
	if len(img) > len(m.data) {
		m.grow(len(img))
	}
	copy(m.data, img)
	clear(m.data[len(img):]) // keep everything past the image zero
	m.data = m.data[:len(img)]
	copy(m.allotWear, wear)
	m.stats = f.stats
	start := 0
	if first := i * keyEvery; first > 0 {
		start = int(l.ents[first-1].end)
	}
	for _, e := range l.ents[i*keyEvery : k] {
		p := l.data[start:e.end]
		copy(m.data[e.off:], p)
		m.account(int(e.idx), len(p))
		start = int(e.end)
		m.stats.Reads += int64(e.delta[0])
		m.stats.Writes += int64(e.delta[1])
		m.stats.BytesRead += int64(e.delta[2])
		m.stats.BytesWritten += int64(e.delta[3])
	}
	m.stale = true
	return nil
}

// Rearm puts m back into the state l logged at write 0, for the next
// deployment of the configuration m was built for: l holds the state right
// after construction (Log, then StopLog, before anything ran). The image,
// the per-allocation wear and the access counters are restored as Restore
// does; every committed region's stage is reloaded from its committed
// image without a charge, as construction left it; and every hook,
// observer and log is cleared. m then counts as recycled: the deployment
// allocated no image.
func (m *Memory) Rearm(l *WriteLog) error {
	if err := m.Restore(l, 0); err != nil {
		return err
	}
	m.crashAfter, m.crashHook = 0, nil
	m.writeCrashAfter, m.writeCrashHook = 0, nil
	m.observer, m.access = nil, nil
	m.StopLog()
	for _, ch := range m.commChunks {
		for j := range ch {
			copy(ch[j].stage, ch[j].image())
		}
	}
	m.recycled = true
	return nil
}

// delta32 is a-b, which must fit an int32: a write log keeps the traffic
// between two writes in that width.
func delta32(a, b int64) int32 {
	d := a - b
	if d < math.MinInt32 || d > math.MaxInt32 {
		panic(fmt.Sprintf("nvm: %d bytes of traffic between two logged writes", d))
	}
	return int32(d)
}
