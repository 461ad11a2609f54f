package fleetserver

import (
	"fmt"
	"sort"
)

// device is one registered fleet member. The identity fields are immutable
// after creation; queue, placement, and stats are guarded by Server.mu.
type device struct {
	id   string
	spec string

	// queue holds ingested events awaiting the next step (bounded by
	// Config.QueueDepth). The stepping loop takes the whole queue when a
	// step starts; events ingested during a step wait for the next one.
	queue []Event
	// inEngine marks membership in the engine currently installed (and
	// possibly mid-step); delete acknowledgement waits on it.
	inEngine bool
	// shard is the device's placement in the current engine, -1 before the
	// first reshard includes it.
	shard int
	// stats accumulates across steps; applied by the loop after each step.
	stats deviceStats
}

// deviceStats is a device's cumulative monitoring state.
type deviceStats struct {
	steps           uint64
	completed       uint64
	nonTerminated   uint64
	reboots         uint64
	energyUJ        float64
	eventsDelivered uint64
	violations      map[string]uint64
	fsm             map[string]string
	lastDigest      uint64
}

// DeviceState is the JSON view of one device served by the registry API.
type DeviceState struct {
	ID   string `json:"id"`
	Spec string `json:"spec"`
	// Shard is the device's placement in the current engine (-1 until the
	// stepping loop reshards it in).
	Shard int `json:"shard"`
	// Steps counts completed device runs; Completed and NonTerminated
	// partition their outcomes.
	Steps         uint64 `json:"steps"`
	Completed     uint64 `json:"completed"`
	NonTerminated uint64 `json:"nonTerminated"`
	// Reboots totals power failures survived; EnergyUJ the supply energy
	// drained, in microjoules.
	Reboots  uint64  `json:"reboots"`
	EnergyUJ float64 `json:"energyUJ"`
	// EventsDelivered counts ingested events delivered to the device's
	// monitors; QueueDepth is the backlog awaiting the next step.
	EventsDelivered uint64 `json:"eventsDelivered"`
	QueueDepth      int    `json:"queueDepth"`
	// Violations counts corrective verdicts by action (run decisions plus
	// verdicts from ingested events); FSM maps each monitor machine to its
	// state at the end of the device's last step.
	Violations map[string]uint64 `json:"violations,omitempty"`
	FSM        map[string]string `json:"fsm,omitempty"`
	// LastDigest is the device's outcome digest from its last step
	// (hex; scheduling-independent).
	LastDigest string `json:"lastDigest"`
}

// stateLocked renders the JSON view; caller holds s.mu.
func (d *device) stateLocked() DeviceState {
	st := DeviceState{
		ID: d.id, Spec: d.spec, Shard: d.shard,
		Steps: d.stats.steps, Completed: d.stats.completed,
		NonTerminated: d.stats.nonTerminated, Reboots: d.stats.reboots,
		EnergyUJ:        d.stats.energyUJ,
		EventsDelivered: d.stats.eventsDelivered,
		QueueDepth:      len(d.queue),
		LastDigest:      fmt.Sprintf("%016x", d.stats.lastDigest),
	}
	if len(d.stats.violations) > 0 {
		st.Violations = make(map[string]uint64, len(d.stats.violations))
		for k, v := range d.stats.violations {
			st.Violations[k] = v
		}
	}
	if len(d.stats.fsm) > 0 {
		st.FSM = make(map[string]string, len(d.stats.fsm))
		for k, v := range d.stats.fsm {
			st.FSM[k] = v
		}
	}
	return st
}

// Register creates a device running the named example spec and returns its
// state. An empty id generates "<spec>-<n>"; a duplicate id is an error.
// Registration bumps the membership generation, so the stepping loop
// reshards before the next step.
func (s *Server) Register(id, spec string) (DeviceState, error) {
	if _, ok := s.specs[spec]; !ok {
		return DeviceState{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownSpec, spec, s.specNames)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return DeviceState{}, ErrClosed
	}
	if id == "" {
		for {
			s.nextID++
			id = fmt.Sprintf("%s-%d", spec, s.nextID)
			if _, taken := s.devices[id]; !taken {
				break
			}
		}
	} else if _, taken := s.devices[id]; taken {
		return DeviceState{}, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	d := &device{
		id: id, spec: spec, shard: -1,
		stats: deviceStats{violations: map[string]uint64{}, fsm: map[string]string{}},
	}
	s.devices[id] = d
	s.order = append(s.order, d)
	s.gen++
	s.cond.Broadcast() // wake a loop idling on an empty registry
	return d.stateLocked(), nil
}

// Unregister deletes a device. It returns only once the device can no
// longer be stepped: if the engine holding it is mid-step, the call waits
// for that step to finish (or for a reshard that excluded the device), so a
// caller observing the acknowledgement never sees a later step touch it.
func (s *Server) Unregister(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devices[id]
	if !ok {
		return ErrNotFound
	}
	delete(s.devices, id)
	for i, od := range s.order {
		if od == d {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.gen++
	for s.stepping && d.inEngine {
		s.cond.Wait()
	}
	return nil
}

// Device returns one device's state.
func (s *Server) Device(id string) (DeviceState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devices[id]
	if !ok {
		return DeviceState{}, ErrNotFound
	}
	return d.stateLocked(), nil
}

// Devices lists every device's state in registration order.
func (s *Server) Devices() []DeviceState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DeviceState, 0, len(s.order))
	for _, d := range s.order {
		out = append(out, d.stateLocked())
	}
	return out
}

// DeviceCount returns the number of registered devices.
func (s *Server) DeviceCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.devices)
}

// SpecNames lists the example specs devices can be registered with.
func (s *Server) SpecNames() []string { return append([]string(nil), s.specNames...) }

// sortSpecNames keeps the error/UI listing stable.
func sortSpecNames(names []string) []string {
	sort.Strings(names)
	return names
}
