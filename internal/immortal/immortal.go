// Package immortal is a miniature stand-in for the ImmortalThreads library
// the paper uses to make generated monitors power-failure resilient (§4.2).
//
// ImmortalThreads instruments C code with "local continuations": a persistent
// program counter plus persistent locals, so that after a reboot execution
// resumes at the statement that was interrupted rather than from the top.
// Here a Thread is an explicit sequence of steps with its program counter in
// FRAM; after each step completes the counter advances persistently, so a
// power failure re-executes at most the step it interrupted. Steps must
// therefore be idempotent, which generated monitor steps are: they read
// events and persistent variables and write persistent variables.
//
// This is exactly the guarantee §4.2.3 relies on: "monitors employ a local
// continuation strategy, enabling them to resume operation from their
// previous state following a power interruption", with monitorFinalize
// (Resume here) concluding interrupted event handling after reboot.
package immortal

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/nvm"
)

// Step is one atomic unit of an immortal thread's work. Steps should be
// idempotent: a power failure during a step causes it to re-execute in full.
type Step func()

// Thread executes a fixed sequence of steps under a persistent program
// counter.
type Thread struct {
	pc    *nvm.Var[int64]
	steps []Step
}

// NewThread allocates the thread's program counter in mem under the given
// owner/name and binds the steps. The step list itself is code, not data; it
// must be identical on every boot (it is regenerated from the same source).
func NewThread(mem *nvm.Memory, owner, name string, steps []Step) (*Thread, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("immortal: thread %s/%s has no steps", owner, name)
	}
	pc, err := nvm.AllocVar[int64](mem, owner, name+".pc")
	if err != nil {
		return nil, err
	}
	return &Thread{pc: pc, steps: steps}, nil
}

// MustNewThread panics on allocation failure.
func MustNewThread(mem *nvm.Memory, owner, name string, steps []Step) *Thread {
	t, err := NewThread(mem, owner, name, steps)
	if err != nil {
		panic(err)
	}
	return t
}

// Rebind replaces the step functions without touching the persistent
// program counter. The runtime uses this after a reboot, when the volatile
// closures have been rebuilt but the persistent continuation must carry on.
func (t *Thread) Rebind(steps []Step) error {
	if len(steps) != len(t.steps) {
		return fmt.Errorf("immortal: rebind with %d steps, thread has %d", len(steps), len(t.steps))
	}
	t.steps = steps
	return nil
}

// Interrupted reports whether a previous Run was cut short by a power
// failure: the persistent counter is mid-sequence.
func (t *Thread) Interrupted() bool {
	pc := t.pc.Get()
	return pc > 0 && pc < int64(len(t.steps))
}

// Run executes the thread from the beginning. It must not be called while
// the thread is interrupted — call Resume first (monitorFinalize semantics).
func (t *Thread) Run() {
	if t.Interrupted() {
		panic("immortal: Run on interrupted thread; call Resume first")
	}
	t.pc.Set(0)
	t.Resume()
}

// Resume executes the remaining steps from the persisted program counter.
// After the final step the counter resets to 0, marking the thread idle.
// A no-op when the thread is already idle.
func (t *Thread) Resume() {
	for pc := t.pc.Get(); pc < int64(len(t.steps)); pc = t.pc.Get() {
		t.steps[pc]()
		t.pc.Set(pc + 1)
	}
	t.pc.Set(0)
}
