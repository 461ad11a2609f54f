package monitor

import (
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// Interface is what the runtime needs from a monitor deployment. Set is the
// on-device deployment; Remote moves evaluation to an external wireless
// device (§7 "Implementation Alternatives").
type Interface interface {
	// Deliver processes one event, idempotently per sequence number.
	Deliver(ev Event) ([]ir.Failure, error)
	// Reset hard-resets all monitors (first boot).
	Reset()
	// Rollback discards uncommitted staging after a reboot.
	Rollback()
	// ResetPath re-initialises the monitors of a restarted path.
	ResetPath(id int)
	// HostMachines is the number of machines evaluated on the host MCU;
	// the runtime charges per-machine dispatch cost for them. A remote
	// deployment evaluates none on the host.
	HostMachines() int
}

// HostMachines implements Interface for the on-device Set.
func (s *Set) HostMachines() int { return len(s.monitors) }

// RadioCost is the per-event cost of shipping an event to an external
// monitoring device and receiving the verdict back. The paper notes that
// "wireless communication is way more energy-hungry compared to
// computation" — these defaults make that concrete for a BLE-class link.
type RadioCost struct {
	TxLatency simclock.Duration
	TxEnergy  energy.Joules
	RxLatency simclock.Duration
	RxEnergy  energy.Joules
}

// DefaultRadioCost models a short BLE exchange: a ~20-byte event
// notification out, a ~8-byte verdict back.
func DefaultRadioCost() RadioCost {
	return RadioCost{
		TxLatency: 3 * simclock.Millisecond,
		TxEnergy:  energy.Microjoules(45),
		RxLatency: 2 * simclock.Millisecond,
		RxEnergy:  energy.Microjoules(30),
	}
}

// ControlSeqBase tags the sequence numbers of control exchanges (path
// re-initialisation commands, OTA bundle chunks). Event sequence numbers
// are small monotonic integers assigned by the runtime; control exchanges
// carry ControlSeqBase | n with their own monotonic n, so the two spaces
// never collide and per-sequence idempotence on the receiving side can
// tell a duplicated control message from a distinct one.
const ControlSeqBase uint64 = 1 << 63

// Link models the radio channel between the host and the external
// monitoring device, as seen by the retry loop. A nil Link is a perfect
// channel; fault-injection harnesses supply lossy implementations.
type Link interface {
	// Exchange attempts the attempt-th (1-based) round-trip carrying the
	// given sequence number — an event sequence assigned by the runtime,
	// or a control sequence tagged with ControlSeqBase (path
	// re-initialisation, OTA bundle chunks). It reports whether the
	// exchange was delivered and how many duplicate deliveries the channel
	// produced on top of the first — re-delivering the same sequence
	// number must be absorbed by per-sequence idempotence on the receiving
	// side.
	Exchange(seq uint64, attempt int) (delivered bool, duplicates int)
}

// RetryPolicy bounds how hard the host tries to reach the external
// monitoring device before degrading to local evaluation.
type RetryPolicy struct {
	// MaxRetries is the number of re-transmissions after the first
	// attempt. Zero means a single attempt.
	MaxRetries int
	// Backoff is the wait before the first re-transmission; each further
	// re-transmission multiplies it by Multiplier (exponential backoff).
	Backoff simclock.Duration
	// Multiplier defaults to 2 when zero or less than 1.
	Multiplier float64
}

// DefaultRetryPolicy retries three times with 5 ms → 10 ms → 20 ms
// backoff — a BLE-scale schedule that keeps a lost event well under the
// benchmark's 100 ms timeliness bounds.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Backoff: 5 * simclock.Millisecond, Multiplier: 2}
}

// localEvalCyclesPerMachine is the host-side cost of evaluating one
// machine when an exchange degrades to local evaluation; it mirrors the
// runtime's per-machine dispatch constant for on-device deployments.
const localEvalCyclesPerMachine = 18

// Exchanger owns the retry/backoff machinery of a radio link: every
// outbound transmission — event notifications, control commands, OTA
// bundle chunks — runs through the same loop, pays the same per-attempt
// radio cost on the host MCU, and shares one set of channel counters. It
// also owns the control sequence space: each control exchange draws a
// fresh monotonic sequence tagged with ControlSeqBase.
type Exchanger struct {
	mcu    *device.MCU
	cost   RadioCost
	link   Link
	policy RetryPolicy

	ctrlSeq    uint64
	retries    int
	degraded   int
	duplicates int
	energy     energy.Joules
}

// NewExchanger builds the retry machinery for one radio link with the
// default radio cost, a perfect channel and the default retry policy.
func NewExchanger(mcu *device.MCU) *Exchanger {
	return &Exchanger{mcu: mcu, cost: DefaultRadioCost(), policy: DefaultRetryPolicy()}
}

// SetLink installs the radio channel model (nil = perfect link).
func (x *Exchanger) SetLink(l Link) { x.link = l }

// SetRetryPolicy replaces the retry/backoff schedule.
func (x *Exchanger) SetRetryPolicy(p RetryPolicy) { x.policy = p }

// Retries returns the number of re-transmissions performed so far.
func (x *Exchanger) Retries() int { return x.retries }

// Degraded returns how many exchanges exhausted their retries; callers
// record the fallback they took with noteDegraded.
func (x *Exchanger) Degraded() int { return x.degraded }

// Duplicates returns how many duplicated deliveries the channel produced
// (each absorbed by sequence-number idempotence).
func (x *Exchanger) Duplicates() int { return x.duplicates }

// Energy returns the total radio energy paid through this exchanger.
func (x *Exchanger) Energy() energy.Joules { return x.energy }

func (x *Exchanger) noteDegraded() { x.degraded++ }

// Exchange runs the retry loop for one outbound transmission carrying the
// given sequence number. It reports whether the exchange was delivered and
// how many duplicates arrived.
func (x *Exchanger) Exchange(seq uint64) (bool, int) {
	attempts := 1 + x.policy.MaxRetries
	if attempts < 1 {
		attempts = 1
	}
	mult := x.policy.Multiplier
	if mult < 1 {
		mult = 2
	}
	backoff := x.policy.Backoff
	for a := 1; a <= attempts; a++ {
		x.mcu.Radio(x.cost.TxLatency, x.cost.TxEnergy)
		x.energy += x.cost.TxEnergy
		if x.link == nil {
			return true, 0
		}
		delivered, dups := x.link.Exchange(seq, a)
		if delivered {
			x.duplicates += dups
			return true, dups
		}
		if a < attempts {
			x.retries++
			if backoff > 0 {
				x.mcu.Idle(backoff)
				backoff = simclock.Duration(float64(backoff) * mult)
			}
		}
	}
	return false, 0
}

// ControlExchange draws the next control sequence number (tagged with
// ControlSeqBase so it can never alias an event sequence) and runs the
// retry loop for it. It returns the sequence used alongside the delivery
// outcome, so callers and tests can correlate control messages.
func (x *Exchanger) ControlExchange() (seq uint64, delivered bool, duplicates int) {
	x.ctrlSeq++
	seq = ControlSeqBase | x.ctrlSeq
	delivered, duplicates = x.Exchange(seq)
	return seq, delivered, duplicates
}

// ReceiveAck pays the cost of receiving one verdict/acknowledgement frame.
func (x *Exchanger) ReceiveAck() {
	x.mcu.Radio(x.cost.RxLatency, x.cost.RxEnergy)
	x.energy += x.cost.RxEnergy
}

// Remote deploys the monitor set on an external device: the host pays radio
// costs per event instead of evaluation costs, and gains the modularity the
// paper describes — monitors can be redeployed without touching the host
// image. The external device is assumed continuously powered (it carries
// its own supply), so monitor state needs no host NVM; the wrapped Set
// still persists state, modelling an external device that is itself
// intermittent-safe.
//
// Radio exchanges are not assumed delivered: each one runs under a
// RetryPolicy, and when every attempt is lost the event is evaluated
// locally on the host instead of being dropped — the Degraded counter
// records how often that fallback fired. Because the set is idempotent
// per sequence number, retries and duplicated deliveries never
// double-step a machine.
type Remote struct {
	set *Set
	mcu *device.MCU
	ex  *Exchanger
}

// NewRemote wraps a monitor set as an external deployment, charging the
// default radio cost on the given host MCU and assuming a perfect link with
// the default retry policy. Use SetLink / SetRetryPolicy to inject channel
// faults.
func NewRemote(set *Set, mcu *device.MCU) *Remote {
	return &Remote{set: set, mcu: mcu, ex: NewExchanger(mcu)}
}

// SetLink installs the radio channel model (nil = perfect link).
func (r *Remote) SetLink(l Link) { r.ex.SetLink(l) }

// SetRetryPolicy replaces the retry/backoff schedule.
func (r *Remote) SetRetryPolicy(p RetryPolicy) { r.ex.SetRetryPolicy(p) }

// Retries returns the number of re-transmissions performed so far.
func (r *Remote) Retries() int { return r.ex.Retries() }

// Degraded returns how many exchanges exhausted their retries and fell
// back to local evaluation.
func (r *Remote) Degraded() int { return r.ex.Degraded() }

// Duplicates returns how many duplicated deliveries the channel produced
// (each absorbed by sequence-number idempotence).
func (r *Remote) Duplicates() int { return r.ex.Duplicates() }

// Exchanger exposes the shared retry machinery so other traffic over the
// same link (OTA bundle transfer) runs with the same policy and counters.
func (r *Remote) Exchanger() *Exchanger { return r.ex }

// Deliver implements Interface: transmit the event (with retries),
// evaluate remotely, receive the verdict. On a dead link the event is
// evaluated locally — monitoring degrades rather than silently losing
// the event.
func (r *Remote) Deliver(ev Event) ([]ir.Failure, error) {
	delivered, dups := r.ex.Exchange(ev.Seq)
	if !delivered {
		r.ex.noteDegraded()
		r.mcu.Exec(int64(localEvalCyclesPerMachine * len(r.set.monitors)))
		return r.set.Deliver(ev)
	}
	// A duplicated notification re-delivers the same sequence number; the
	// set recognises the replay and returns the stored verdict without
	// stepping. Duplicates are processed first so the verdict slice handed
	// back — which aliases the set's delivery scratch — comes from the
	// final delivery and stays valid for the caller.
	for i := 0; i < dups; i++ {
		if _, err := r.set.Deliver(ev); err != nil {
			return nil, err
		}
	}
	fs, err := r.set.Deliver(ev)
	if err != nil {
		return nil, err
	}
	r.ex.ReceiveAck()
	return fs, nil
}

// Reset implements Interface.
func (r *Remote) Reset() { r.set.Reset() }

// Rollback implements Interface.
func (r *Remote) Rollback() { r.set.Rollback() }

// ResetPath implements Interface; the re-initialisation command is another
// radio exchange, retried like any other — carrying its own control
// sequence number, so a channel that duplicates or reorders control
// messages can still tell two distinct re-initialisations apart.
// Re-initialisation is idempotent, so a lost command is applied locally
// with the same effect.
func (r *Remote) ResetPath(id int) {
	if _, delivered, _ := r.ex.ControlExchange(); !delivered {
		r.ex.noteDegraded()
	}
	r.set.ResetPath(id)
}

// HostMachines implements Interface: nothing evaluates on the host.
func (r *Remote) HostMachines() int { return 0 }

// Set returns the wrapped on-device set, for inspection in tests.
func (r *Remote) Set() *Set { return r.set }

// ReplaceSet swaps the wrapped on-device set for a new deployment (OTA
// reprogramming): the exchanger — its link, policy, and counters — stays,
// because the radio channel did not change, only the monitors behind it.
func (r *Remote) ReplaceSet(set *Set) { r.set = set }
