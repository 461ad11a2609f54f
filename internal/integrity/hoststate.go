package integrity

import (
	"slices"

	"github.com/tinysystems/artemis-go/internal/simclock"
)

// HostState is the part of the manager's state that lives in host memory
// and so outlasts a simulated power failure: the scrub anchor, the counters
// and the quarantine bookkeeping. Crash-state checkpoints copy it; the
// guards' CRCs are in FRAM.
type HostState struct {
	last        simclock.Time
	stats       Stats
	pending     []int // indices of guards awaiting escalation, oldest first
	quarantined []int // indices of guards ever quarantined
}

// HostState returns the manager's host-side state. It allocates only when
// a guard was ever quarantined.
func (m *Manager) HostState() HostState {
	s := HostState{last: m.last, stats: m.stats}
	for i, g := range m.guards {
		if g.quarantined {
			s.quarantined = append(s.quarantined, i)
		}
	}
	for _, g := range m.pending {
		s.pending = append(s.pending, slices.Index(m.guards, g))
	}
	return s
}

// SetHostState puts a HostState of a manager with the same guards into m.
func (m *Manager) SetHostState(s HostState) {
	m.last, m.stats = s.last, s.stats
	for _, g := range m.guards {
		g.quarantined = false
	}
	for _, i := range s.quarantined {
		m.guards[i].quarantined = true
	}
	m.pending = m.pending[:0]
	for _, i := range s.pending {
		m.pending = append(m.pending, m.guards[i])
	}
}

// Equal reports whether two host states are the same.
func (s HostState) Equal(o HostState) bool {
	return s.last == o.last && s.stats == o.stats &&
		slices.Equal(s.pending, o.pending) && slices.Equal(s.quarantined, o.quarantined)
}
