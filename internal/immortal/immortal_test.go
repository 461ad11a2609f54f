package immortal

import (
	"testing"
	"testing/quick"

	"github.com/tinysystems/artemis-go/internal/nvm"
)

type crash struct{}

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

func TestThreadRunsAllSteps(t *testing.T) {
	mem := nvm.New(1024)
	count := nvm.MustAllocVar[int64](mem, "t", "count")
	steps := []Step{
		func() { count.Set(count.Get() + 1) },
		func() { count.Set(count.Get() + 10) },
		func() { count.Set(count.Get() + 100) },
	}
	th := MustNewThread(mem, "t", "th", steps)
	th.Run()
	if got := count.Get(); got != 111 {
		t.Fatalf("count = %d, want 111", got)
	}
	if th.Interrupted() {
		t.Fatal("thread interrupted after clean run")
	}
	th.Run() // must be re-runnable
	if got := count.Get(); got != 222 {
		t.Fatalf("count after 2nd run = %d, want 222", got)
	}
}

func TestEmptyThreadRejected(t *testing.T) {
	if _, err := NewThread(nvm.New(64), "t", "th", nil); err == nil {
		t.Fatal("empty thread accepted")
	}
}

func TestThreadResumeAfterCrash(t *testing.T) {
	mem := nvm.New(1024)
	a := nvm.MustAllocVar[int64](mem, "t", "a")
	b := nvm.MustAllocVar[int64](mem, "t", "b")
	boom := true
	steps := []Step{
		func() { a.Set(1) },
		func() {
			if boom {
				panic(crash{})
			}
			b.Set(2)
		},
	}
	th := MustNewThread(mem, "t", "th", steps)
	if !crashing(th.Run) {
		t.Fatal("expected crash")
	}
	if !th.Interrupted() {
		t.Fatal("thread not marked interrupted")
	}
	if a.Get() != 1 || b.Get() != 0 {
		t.Fatalf("a=%d b=%d after crash, want 1/0", a.Get(), b.Get())
	}
	// "Reboot": closures rebuilt, continuation resumes at step 2.
	boom = false
	th.Resume()
	if a.Get() != 1 || b.Get() != 2 {
		t.Fatalf("a=%d b=%d after resume, want 1/2", a.Get(), b.Get())
	}
	if th.Interrupted() {
		t.Fatal("still interrupted after resume")
	}
}

func TestRunOnInterruptedPanics(t *testing.T) {
	mem := nvm.New(1024)
	steps := []Step{func() { panic(crash{}) }, func() {}}
	th := MustNewThread(mem, "t", "th", steps)
	crashing(th.Run)
	defer func() {
		if recover() == nil {
			t.Fatal("Run on interrupted thread did not panic")
		}
	}()
	th.Run()
}

func TestResumeIdleIsNoOp(t *testing.T) {
	mem := nvm.New(1024)
	n := nvm.MustAllocVar[int64](mem, "t", "n")
	th := MustNewThread(mem, "t", "th", []Step{func() { n.Set(n.Get() + 1) }})
	th.Resume() // idle: pc == 0 means "not started" — Resume runs from 0
	if n.Get() != 1 {
		t.Fatalf("n = %d after resume-from-idle, want 1 (pc 0 runs all)", n.Get())
	}
}

func TestRebind(t *testing.T) {
	mem := nvm.New(1024)
	n := nvm.MustAllocVar[int64](mem, "t", "n")
	th := MustNewThread(mem, "t", "th", []Step{func() { panic(crash{}) }, func() {}})
	crashing(th.Run)
	if err := th.Rebind([]Step{func() { n.Set(7) }, func() { n.Set(n.Get() + 1) }}); err != nil {
		t.Fatal(err)
	}
	th.Resume() // resumes at step 0 (it was interrupted there)
	if n.Get() != 8 {
		t.Fatalf("n = %d, want 8", n.Get())
	}
	if err := th.Rebind([]Step{func() {}}); err == nil {
		t.Fatal("rebind with wrong step count accepted")
	}
}

// Property: for any crash position, resuming completes the work exactly as
// an uninterrupted run would — each step's effect applied exactly once when
// steps are idempotent "set" operations.
func TestCrashAnywhereResumeProperty(t *testing.T) {
	f := func(nSteps, crashAt uint8) bool {
		n := int(nSteps%8) + 1
		at := int(crashAt) % n
		mem := nvm.New(4096)
		vals := make([]*nvm.Var[int64], n)
		for i := range vals {
			vals[i] = nvm.MustAllocVar[int64](mem, "t", "v")
		}
		armed := true
		steps := make([]Step, n)
		for i := range steps {
			i := i
			steps[i] = func() {
				if armed && i == at {
					armed = false
					panic(crash{})
				}
				vals[i].Set(int64(i) + 1)
			}
		}
		th := MustNewThread(mem, "t", "th", steps)
		if !crashing(th.Run) {
			return false
		}
		th.Resume()
		for i, v := range vals {
			if v.Get() != int64(i)+1 {
				return false
			}
		}
		return !th.Interrupted()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
