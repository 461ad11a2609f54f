package codegen

import (
	"math/rand"
	"testing"

	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

// corpus is the machine zoo the differential tests drive: each entry
// exercises a distinct slice of the expression/statement semantics the
// closure compiler must reproduce bit-for-bit, including the runtime
// errors (division by zero, non-boolean guards, lossy float→int stores).
var corpus = []struct {
	name string
	src  string
}{
	{"alternation", `
machine SendAlternation {
    var sent: bool = false
    var burst: int = 0
    initial state Watch {
        on end [task == "sample"] -> Watch { sent = false; burst = 0; }
        on end [task == "send" && !sent] -> Watch { sent = true; }
        on start [task == "send" && sent && burst < 2] -> Watch { burst = burst + 1; fail restartTask; }
        on start [task == "send" && sent && burst >= 2] -> Watch { burst = 0; sent = false; fail completePath; }
    }
}`},
	{"arith", `
machine Arith {
    var acc: int = 1
    var avg: float = 0.0
    var n: int = 0
    initial state Run {
        on end [task == "mul"] -> Run { acc = acc * 3 - 1; n = n + 1; avg = (avg * (n - 1) + data) / n; }
        on end [task == "mod"] -> Run { acc = acc % 7; }
        on end [task == "div"] -> Run { acc = acc / n; }
        on start [acc > 1000 || avg < -0.5] -> Done { fail skipPath; }
    }
    state Done {
    }
}`},
	{"guards", `
machine Guards {
    var armed: bool = false
    var t0: int = 0
    initial state Idle {
        on start [task == "work"] -> Busy { armed = true; t0 = t; }
        on any [energy < 10.0] -> Idle { fail skipTask; }
    }
    state Busy {
        on end [task == "work" && t - t0 > 500] -> Idle { armed = false; fail restartTask; }
        on end [task == "work"] -> Idle { armed = false; }
    }
}`},
	{"branches", `
machine Branches {
    var hi: int = 0
    var lo: int = 0
    initial state S {
        on end -> S {
            if data >= 50.0 {
                hi = hi + 1;
                if hi % 3 == 0 { fail restartPath; }
            } else {
                lo = lo + 1;
                if !(lo < 4) { lo = 0; fail skipTask; }
            }
        }
    }
}`},
	{"coerce", `
machine Coerce {
    var whole: int = 0
    var mix: float = 1.5
    initial state S {
        on end [task == "widen"] -> S { mix = whole + 2; }
        on end [task == "narrow"] -> S { whole = data; }
        on end [task == "neg"] -> S { whole = -whole; mix = -mix; }
    }
}`},
	{"badguard", `
machine BadGuard {
    var x: int = 0
    initial state S {
        on end [task == "trip"] -> T { x = x + 1; }
        on end [data] -> S { x = 0; }
    }
    state T {
        on end [x / (x - 1) > 0] -> S { fail skipTask; }
    }
}`},
}

// benchEvents builds a deterministic pseudo-random event stream. Data
// values are drawn from a small set so coercion edge cases (integral and
// non-integral floats, zero divisors) actually occur.
func eventStream(seed int64, n int) []ir.Event {
	r := rand.New(rand.NewSource(seed))
	tasks := []string{"sample", "send", "work", "mul", "mod", "div", "widen", "narrow", "neg", "trip"}
	data := []float64{0, 1, 2, 7, 49.5, 50, 64, -3, 100.25}
	evs := make([]ir.Event, n)
	for i := range evs {
		kind := ir.EvStart
		if r.Intn(2) == 1 {
			kind = ir.EvEnd
		}
		evs[i] = ir.Event{
			Kind:   kind,
			Task:   tasks[r.Intn(len(tasks))],
			Time:   simclock.Time(i * 137),
			Path:   1 + r.Intn(3),
			Data:   data[r.Intn(len(data))],
			Energy: float64(r.Intn(2000)) / 2.0,
		}
	}
	return evs
}

// diffStep drives one event through both engines and fails the test on any
// observable divergence: failures, errors, state index, or variable words.
// Both engines keep stepping after an error — the partial writes an
// aborted body leaves behind must match too.
func diffStep(t *testing.T, m *ir.Machine, env *ir.VolatileEnv, cm *Machine, fr *Frame, sl *VolatileSlots, ev ir.Event) {
	t.Helper()
	wantFs, wantErr := ir.Step(m, env, ev)
	gotFs, gotErr := cm.Step(fr, sl, ev)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%v: error divergence: interpreter %v, compiled %v", ev, wantErr, gotErr)
	}
	if wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%v: error text divergence:\n  interpreter: %v\n  compiled:    %v", ev, wantErr, gotErr)
	}
	if len(wantFs) != len(gotFs) {
		t.Fatalf("%v: failure count divergence: interpreter %v, compiled %v", ev, wantFs, gotFs)
	}
	for i := range wantFs {
		if wantFs[i] != gotFs[i] {
			t.Fatalf("%v: failure %d divergence: interpreter %v, compiled %v", ev, i, wantFs[i], gotFs[i])
		}
	}
	if env.State() != sl.StateIdx() {
		t.Fatalf("%v: state divergence: interpreter %d, compiled %d", ev, env.State(), sl.StateIdx())
	}
	for i, v := range m.Vars {
		want, _ := env.GetVar(v.Name)
		bits, err := want.Encode()
		if err != nil {
			t.Fatalf("encode %s: %v", v.Name, err)
		}
		if got := sl.VarWord(i); got != bits {
			t.Fatalf("%v: var %q divergence: interpreter %#x, compiled %#x", ev, v.Name, bits, got)
		}
	}
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			prog := ir.MustParse(tc.src)
			m := prog.Machines[0]
			cm, err := CompileMachine(m)
			if err != nil {
				t.Fatalf("CompileMachine: %v", err)
			}
			if cm.Name() != m.Name {
				t.Fatalf("compiled name %q, want %q", cm.Name(), m.Name)
			}
			for seed := int64(1); seed <= 8; seed++ {
				env := ir.NewVolatileEnv(m)
				sl, err := NewVolatileSlots(m)
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range eventStream(seed, 400) {
					diffStep(t, m, env, cm, sharedFrame, sl, ev)
				}
			}
		})
	}
}

// sharedFrame is reused across every machine and step of the differential
// test, proving frames are reusable the way monitors reuse them.
var sharedFrame = NewFrame()

func TestCompileProgram(t *testing.T) {
	var src string
	for _, tc := range corpus {
		src += tc.src + "\n"
	}
	prog := ir.MustParse(src)
	cp, err := CompileProgram(prog)
	if err != nil {
		t.Fatalf("checked program did not compile: %v", err)
	}
	for i, m := range prog.Machines {
		if cp.Machine(i).Name() != m.Name {
			t.Fatalf("machine %d: compiled slot mismatch", i)
		}
	}
}

func TestCompileMachineRejectsUncheckable(t *testing.T) {
	// Hand-built (unchecked) machines with constructs the compiler must
	// refuse rather than compile into something that diverges from the
	// interpreter.
	bad := []*ir.Machine{
		{Name: "strvar", Initial: "S",
			Vars:   []ir.VarDecl{{Name: "s", Type: ir.TString, Init: ir.Str("")}},
			States: []ir.State{{Name: "S"}}},
		{Name: "undeclared", Initial: "S",
			States: []ir.State{{Name: "S", Transitions: []ir.Transition{
				{Trigger: ir.TrigAny, Target: "S", Body: []ir.Stmt{ir.Assign{Name: "ghost", X: ir.Lit{V: ir.Int(1)}}}},
			}}}},
		{Name: "badtarget", Initial: "S",
			States: []ir.State{{Name: "S", Transitions: []ir.Transition{
				{Trigger: ir.TrigAny, Target: "Nowhere"},
			}}}},
	}
	for _, m := range bad {
		if _, err := CompileMachine(m); err == nil {
			t.Errorf("machine %s: expected compile error", m.Name)
		}
	}
	// One bad machine fails the whole program: there is no partial result
	// to fall back from.
	good := ir.MustParse(corpus[0].src).Machines[0]
	if cp, err := CompileProgram(&ir.Program{Machines: []*ir.Machine{good, bad[0]}}); err == nil || cp != nil {
		t.Fatalf("program with an uncompilable machine accepted: %v", err)
	}
}

// FuzzStepEquivalence fuzzes event streams through both engines over the
// whole corpus — the seed corpus runs in tier-1 `go test`, and the weekly
// deep-chaos job extends it (-fuzz). Any divergence in failures, errors,
// states, or variable words is a bug in one engine or the other.
func FuzzStepEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte("send/50"))
	f.Add(int64(42), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(7), uint8(5), []byte("div/0 mod/7 narrow/49.5"))
	f.Add(int64(-3), uint8(2), []byte{0xff, 0x80, 0x01})
	type engine struct {
		m   *ir.Machine
		cm  *Machine
		env *ir.VolatileEnv
		sl  *VolatileSlots
		fr  *Frame
	}
	var machines []*ir.Machine
	for _, tc := range corpus {
		machines = append(machines, ir.MustParse(tc.src).Machines[0])
	}
	f.Fuzz(func(t *testing.T, seed int64, pick uint8, raw []byte) {
		m := machines[int(pick)%len(machines)]
		cm, err := CompileMachine(m)
		if err != nil {
			t.Fatalf("CompileMachine: %v", err)
		}
		sl, err := NewVolatileSlots(m)
		if err != nil {
			t.Fatal(err)
		}
		e := engine{m: m, cm: cm, env: ir.NewVolatileEnv(m), sl: sl, fr: NewFrame()}
		tasks := []string{"sample", "send", "work", "mul", "mod", "div", "widen", "narrow", "neg", "trip"}
		r := rand.New(rand.NewSource(seed))
		for i, b := range raw {
			ev := ir.Event{
				Kind:   ir.EventKind(int(b) % 2),
				Task:   tasks[(int(b)>>1)%len(tasks)],
				Time:   simclock.Time(i * int(b)),
				Path:   1 + int(b)%4,
				Data:   float64(int8(b)) / 2.0,
				Energy: float64(r.Intn(100)),
			}
			diffStep(t, e.m, e.env, e.cm, e.fr, e.sl, ev)
		}
	})
}

func TestCompiledStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	prog := ir.MustParse(corpus[0].src)
	m := prog.Machines[0]
	cm, err := CompileMachine(m)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := NewVolatileSlots(m)
	if err != nil {
		t.Fatal(err)
	}
	frame := NewFrame()
	evs := []ir.Event{
		{Kind: ir.EvEnd, Task: "sample", Time: 1, Path: 1},
		{Kind: ir.EvEnd, Task: "send", Time: 2, Path: 1},
		{Kind: ir.EvStart, Task: "send", Time: 3, Path: 1}, // signals a failure
	}
	// Warm the failure buffer once, then dispatch must be allocation-free
	// even on failure-signalling steps.
	for _, ev := range evs {
		if _, err := cm.Step(frame, sl, ev); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, ev := range evs {
			if _, err := cm.Step(frame, sl, ev); err != nil {
				panic(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled dispatch allocated %.1f objects per 3-event burst, want 0", allocs)
	}
}

func BenchmarkCompiledStep(b *testing.B) {
	benchStep(b, func(m *ir.Machine) func(ir.Event) {
		cm, err := CompileMachine(m)
		if err != nil {
			b.Fatal(err)
		}
		sl, err := NewVolatileSlots(m)
		if err != nil {
			b.Fatal(err)
		}
		frame := NewFrame()
		return func(ev ir.Event) {
			if _, err := cm.Step(frame, sl, ev); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkInterpretedStep(b *testing.B) {
	benchStep(b, func(m *ir.Machine) func(ir.Event) {
		env := ir.NewVolatileEnv(m)
		return func(ev ir.Event) {
			if _, err := ir.Step(m, env, ev); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchStep(b *testing.B, mk func(*ir.Machine) func(ir.Event)) {
	m := ir.MustParse(corpus[0].src).Machines[0]
	step := mk(m)
	evs := eventStream(1, 64)
	// Drop the error-provoking tasks; both engines would abort identically
	// but a benchmark wants the steady state.
	ok := evs[:0]
	for _, ev := range evs {
		if ev.Task != "div" && ev.Task != "narrow" && ev.Task != "trip" {
			ok = append(ok, ev)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(ok[i%len(ok)])
	}
}
