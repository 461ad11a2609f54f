package codegen

import (
	"math/rand"
	"slices"
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
	// fallback holds the shapes no typed closure can prove: string
	// equality other than task against a literal, zero divisors, % on a
	// float, bool equality over a division, operators on the wrong type,
	// && and || reaching a non-boolean, and int literals beyond 2^53
	// (exact under ==, widened to float under >). Each shape sits in a
	// guard, an if-condition and an assignment. A few typed sites meet
	// them: a typed store opens a branch whose condition can fail, typed
	// == and > compare an int beyond 2^53, and an int sum beyond 2^53 is
	// computed exactly before it widens.
	{"fallback", `
machine Fallback {
    var b: bool = false
    var q: int = 1
    var n: int = 7
    var big: int = 9007199254740993
    var f: float = 0.5
    initial state S {
        on start ["div" == task && n / q > 0] -> S { fail skipTask; }
        on start ["mod" == task && n % q == 1] -> S { fail restartTask; }
        on start ["send" == task && f / data > 1.0] -> S { fail skipPath; }
        on start ["narrow" == task && data % 2 == 0] -> S;
        on start ["widen" == task && (n / q == 1) == b] -> S { fail skipTask; }
        on start ["neg" == task && -task == 1] -> S;
        on start ["trip" == task && task < 1] -> S;
        on start ["work" == task && !n] -> S;
        on start ["mul" == task && path % 2 == 1 && (b && data)] -> S { fail restartPath; }
        on start ["mul" == task && path % 2 == 0 && (b || data)] -> S { fail restartPath; }
        on start ["sample" == task && big / 1 > 9007199254740992] -> S { fail completePath; }
        on start ["sample" == task && big / 1 == 9007199254740993] -> S { fail skipTask; }
        on end ["sample" == task] -> S {
            b = "send" == task;
            q = path % 3;
            big = 9007199254740992 + q / 1;
            if task == task { f = f / 2.0 + data / 4; }
            if "sample" == task && big / 1 > 9007199254740992 { fail skipPath; }
            if big / 1 == 9007199254740993 { fail restartTask; }
            if big == 9007199254740993 { n = 11; }
            if big > 9007199254740992 { n = n + 2; }
            if big + 1 > 9007199254740993 { n = n * 2; }
        }
        on end [task == task && "send" == task] -> S { b = task == task; f = f / data; n = n % q + 7 / 1; }
        on end ["div" == task] -> S {
            if n / q == 0 { f = 0.25; n = n + 5 / 1; } else { n = n / q; b = big / 1 > 9007199254740992; }
        }
        on end ["mod" == task] -> S {
            if path % 2 == 1 { if b && data { fail skipTask; } } else { if b || data { fail skipTask; } }
            if n % q > 0 { n = n * 3 + 1 / 1; }
        }
        on end ["mul" == task] -> S {
            if path % 2 == 1 { b = b && data; } else { b = b || data; }
            if f / data < 1.0 { fail restartTask; }
        }
        on end ["widen" == task] -> S {
            if (n / q > 0) == b { b = (n / q == 1) == b; } else { b = big / 1 == 9007199254740993; }
        }
        on end ["neg" == task] -> S {
            if path % 2 == 1 { n = -task; } else { if -task > 0 { n = 1 / 1; } }
        }
        on end ["trip" == task] -> S {
            if path % 2 == 1 { b = task < 1; } else { if task < 1 { n = 2 / 1; } }
        }
        on end ["work" == task] -> S {
            if path % 2 == 1 { n = n / q; b = !n; } else { if !n { n = 3 / 1; } }
        }
        on end ["narrow" == task] -> S {
            if path % 2 == 1 { n = data % 2; } else { if f % 2 == 1 { n = 4 / 1; } }
        }
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
// aborted body leaves behind must match too. It returns the interpreter's
// result.
func diffStep(t *testing.T, m *ir.Machine, env *ir.VolatileEnv, cm *Machine, fr *Frame, sl *VolatileSlots, ev ir.Event) ([]ir.Failure, error) {
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
	return wantFs, wantErr
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
// states, or variable words is a bug in one engine or the other. It also
// holds the task table to the interpreter: an event that Candidate rules
// out in the machine's current state leaves ir.Step's state and variables
// unchanged, with no failure and no error. The alphabet's "idle" is a task
// no guard names, so it resolves to id 0.
func FuzzStepEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte("send/50"))
	f.Add(int64(42), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(7), uint8(5), []byte("div/0 mod/7 narrow/49.5"))
	f.Add(int64(-3), uint8(2), []byte{0xff, 0x80, 0x01})
	// The guards machine's Busy state rules out every start and every end
	// but work's: start work, then start sample, send and idle and end
	// sample there. The fallback machine's reversed "lit" == task guards
	// are generic closures, some of which fail past their leading literal:
	// every task as start and end (bytes 0-21).
	f.Add(int64(3), uint8(2), []byte{4, 0, 2, 20, 1, 5})
	f.Add(int64(5), uint8(6), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21})
	f.Add(int64(11), uint8(6), []byte("div/0 idle trip/1 mod/3"))
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
		tasks := []string{"sample", "send", "work", "mul", "mod", "div", "widen", "narrow", "neg", "trip", "idle"}
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
			ruledOut := !e.cm.Candidate(e.sl.StateIdx(), ev.Kind, e.cm.tasks.id(ev.Task))
			before := envWords(t, e.m, e.env)
			fs, err := diffStep(t, e.m, e.env, e.cm, e.fr, e.sl, ev)
			if ruledOut && (len(fs) != 0 || err != nil || !slices.Equal(envWords(t, e.m, e.env), before)) {
				t.Fatalf("%v: ruled out in %s, but the interpreter moved: failures %v, error %v, words %#x -> %#x",
					ev, e.m.States[before[0]].Name, fs, err, before, envWords(t, e.m, e.env))
			}
		}
	})
}

// envWords returns an interpreter env's state index followed by its
// encoded variables, in declaration order.
func envWords(t *testing.T, m *ir.Machine, env *ir.VolatileEnv) []uint64 {
	t.Helper()
	words := []uint64{uint64(env.State())}
	for _, v := range m.Vars {
		val, _ := env.GetVar(v.Name)
		bits, err := val.Encode()
		if err != nil {
			t.Fatalf("encode %s: %v", v.Name, err)
		}
		words = append(words, bits)
	}
	return words
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
