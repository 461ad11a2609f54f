package chaos

import (
	"math/rand"

	"github.com/tinysystems/artemis-go/internal/nvm"
)

// SensorFault transforms sensor readings; implementations model the
// stuck-at / spike / dropout failure modes that make sensor data stale or
// inconsistent — the fault class the fresh/consistent-inputs line of work
// treats as first-class.
type SensorFault interface {
	// Name labels the fault in reports.
	Name() string
	// Apply transforms the fault-free reading; sample is its zero-based
	// index, so periodic faults stay deterministic across re-executions
	// (the index comes from the application's persistent store, which
	// rolls back with the task on a crash).
	Apply(nominal float64, sample int) float64
}

// StuckAt pins the sensor to one value — a shorted or frozen transducer.
type StuckAt struct{ Value float64 }

// Name implements SensorFault.
func (s StuckAt) Name() string { return "stuck-at" }

// Apply implements SensorFault.
func (s StuckAt) Apply(float64, int) float64 { return s.Value }

// Spike adds a transient offset to every Every-th sample — an electrical
// glitch or a single corrupted conversion.
type Spike struct {
	Delta float64
	Every int // every Every-th sample spikes; <=0 means every sample
}

// Name implements SensorFault.
func (s Spike) Name() string { return "spike" }

// Apply implements SensorFault.
func (s Spike) Apply(nominal float64, sample int) float64 {
	if s.Every <= 1 || sample%s.Every == 0 {
		return nominal + s.Delta
	}
	return nominal
}

// Dropout replaces every Every-th sample with a default value — a sensor
// that intermittently fails to answer on the bus.
type Dropout struct {
	Every int     // every Every-th sample drops; <=0 means every sample
	Value float64 // the reading a dropped sample yields (bus default)
}

// Name implements SensorFault.
func (d Dropout) Name() string { return "dropout" }

// Apply implements SensorFault.
func (d Dropout) Apply(nominal float64, sample int) float64 {
	if d.Every <= 1 || sample%d.Every == 0 {
		return d.Value
	}
	return nominal
}

// LossyLink is a monitor.Link that drops and duplicates exchanges under a
// seeded RNG — deterministic per seed, so a failing radio campaign
// replays exactly.
type LossyLink struct {
	rng      *rand.Rand
	dropProb float64
	dupProb  float64

	attempts int
	drops    int
}

// NewLossyLink builds a link that loses each exchange with probability
// dropProb and duplicates each delivered exchange with probability
// dupProb.
func NewLossyLink(seed int64, dropProb, dupProb float64) *LossyLink {
	return &LossyLink{rng: rng(seed), dropProb: dropProb, dupProb: dupProb}
}

// Exchange implements monitor.Link.
func (l *LossyLink) Exchange(seq uint64, attempt int) (delivered bool, duplicates int) {
	l.attempts++
	if l.rng.Float64() < l.dropProb {
		l.drops++
		return false, 0
	}
	if l.rng.Float64() < l.dupProb {
		return true, 1
	}
	return true, 0
}

// Attempts returns the number of exchanges attempted over the link.
func (l *LossyLink) Attempts() int { return l.attempts }

// Drops returns the number of exchanges the link lost.
func (l *LossyLink) Drops() int { return l.drops }

// BitFlipper injects soft errors into a memory's allocated regions: each
// Flip picks a random allocation, byte, and bit from the seeded RNG.
type BitFlipper struct {
	mem *nvm.Memory
	rng *rand.Rand
}

// NewBitFlipper builds a flipper over mem.
func NewBitFlipper(mem *nvm.Memory, seed int64) *BitFlipper {
	return &BitFlipper{mem: mem, rng: rng(seed)}
}

// Flip corrupts one random bit inside a random allocation and reports
// where it landed. It returns ok=false when the memory has no allocations.
func (b *BitFlipper) Flip() (alloc nvm.Allocation, off int, bit uint, ok bool) {
	allocs := b.mem.Allocations()
	if len(allocs) == 0 {
		return nvm.Allocation{}, 0, 0, false
	}
	alloc = allocs[b.rng.Intn(len(allocs))]
	off = alloc.Off + b.rng.Intn(alloc.Size)
	bit = uint(b.rng.Intn(8))
	b.mem.FlipBit(off, bit)
	return alloc, off, bit, true
}
