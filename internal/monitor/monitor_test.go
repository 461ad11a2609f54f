package monitor

import (
	"testing"
	"testing/quick"

	"github.com/tinysystems/artemis-go/internal/action"
	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/transform"
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

func testGraph(t *testing.T) *task.Graph {
	t.Helper()
	send := &task.Task{Name: "send"}
	g, err := task.NewGraph(
		&task.Path{ID: 1, Tasks: []*task.Task{{Name: "bodyTemp"}, {Name: "calcAvg", DepData: "avgTemp"}, send}},
		&task.Path{ID: 2, Tasks: []*task.Task{{Name: "accel"}, send}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func compileSet(t *testing.T, mem *nvm.Memory, src string) *Set {
	t.Helper()
	res, err := transform.Compile(spec.MustParse(src), transform.Options{
		Graph:    testGraph(t),
		DataVars: []string{"avgTemp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSet(mem, res)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	return s
}

func startEv(seq uint64, taskName string, at simclock.Duration, path int) Event {
	return Event{Seq: seq, Event: ir.Event{Kind: ir.EvStart, Task: taskName, Time: simclock.Time(at), Path: path}}
}

func endEv(seq uint64, taskName string, at simclock.Duration, path int) Event {
	return Event{Seq: seq, Event: ir.Event{Kind: ir.EvEnd, Task: taskName, Time: simclock.Time(at), Path: path}}
}

func TestSetDeliverBasic(t *testing.T) {
	mem := nvm.New(64 * 1024)
	s := compileSet(t, mem, `accel { maxTries: 3 onFail: skipPath; }`)
	var seq uint64
	next := func() uint64 { seq++; return seq }

	// Three starts without an end, then the limit.
	for i := 0; i < 3; i++ {
		fs, err := s.Deliver(startEv(next(), "accel", simclock.Duration(i)*simclock.Second, 2))
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) != 0 {
			t.Fatalf("attempt %d: failures %v", i, fs)
		}
	}
	fs, err := s.Deliver(startEv(next(), "accel", 10*simclock.Second, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Action != action.SkipPath {
		t.Fatalf("failures = %v, want skipPath", fs)
	}
}

func TestDeliverIdempotentPerSeq(t *testing.T) {
	mem := nvm.New(64 * 1024)
	s := compileSet(t, mem, `accel { maxTries: 2 onFail: skipPath; }`)
	m := s.Monitor("maxTries_accel")
	if m == nil {
		t.Fatal("monitor missing")
	}
	ev := startEv(1, "accel", simclock.Second, 2)
	if _, err := s.Deliver(ev); err != nil {
		t.Fatal(err)
	}
	// Re-delivering the same sequence number must not re-step the machine.
	for i := 0; i < 5; i++ {
		if _, err := s.Deliver(ev); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := m.VarValue("i"); v.I != 1 {
		t.Fatalf("i = %v after redundant deliveries, want 1", v)
	}
}

func TestDeliverReturnsStoredVerdictOnReplay(t *testing.T) {
	mem := nvm.New(64 * 1024)
	s := compileSet(t, mem, `accel { maxTries: 1 onFail: skipPath; }`)
	s.Deliver(startEv(1, "accel", simclock.Second, 2))
	ev := startEv(2, "accel", 2*simclock.Second, 2)
	fs1, err := s.Deliver(ev)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := s.Deliver(ev) // replay after hypothetical reboot
	if err != nil {
		t.Fatal(err)
	}
	if len(fs1) != 1 || len(fs2) != 1 || fs1[0] != fs2[0] {
		t.Fatalf("replayed verdict differs: %v vs %v", fs1, fs2)
	}
}

func TestZeroSeqRejected(t *testing.T) {
	mem := nvm.New(64 * 1024)
	s := compileSet(t, mem, `accel { maxTries: 1 onFail: skipPath; }`)
	if _, err := s.Deliver(startEv(0, "accel", 0, 2)); err == nil {
		t.Fatal("seq 0 accepted")
	}
}

func TestMonitorStateSurvivesReboot(t *testing.T) {
	mem := nvm.New(64 * 1024)
	src := `accel { maxTries: 5 onFail: skipPath; }`
	s := compileSet(t, mem, src)
	s.Deliver(startEv(1, "accel", simclock.Second, 2))
	s.Deliver(startEv(2, "accel", 2*simclock.Second, 2))

	// Reboot: FRAM retains its contents, the boot code re-runs the same
	// allocation sequence, and the rebuilt Set recovers the machine state.
	res, err := transform.Compile(spec.MustParse(src), transform.Options{Graph: testGraph(t)})
	if err != nil {
		t.Fatal(err)
	}
	mem.Reboot()
	s2, err := NewSet(mem, res)
	if err != nil {
		t.Fatal(err)
	}
	s2.Rollback()
	m := s2.Monitor("maxTries_accel")
	if v, _ := m.VarValue("i"); v.I != 2 {
		t.Fatalf("i = %v after reboot, want 2", v)
	}
	if m.State() != "Started" {
		t.Fatalf("state = %q after reboot, want Started", m.State())
	}
	// The rebooted set keeps counting where it left off.
	for seq := uint64(3); seq <= 5; seq++ {
		if _, err := s2.Deliver(startEv(seq, "accel", simclock.Duration(seq)*simclock.Second, 2)); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := s2.Deliver(startEv(6, "accel", 10*simclock.Second, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Action != action.SkipPath {
		t.Fatalf("failures after reboot = %v, want skipPath", fs)
	}
}

func TestResetPathPolicy(t *testing.T) {
	mem := nvm.New(128 * 1024)
	src := `
accel { maxTries: 5 onFail: skipPath; }
send { MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath Path: 2; }
calcAvg { collect: 10 dpTask: bodyTemp onFail: restartPath; }
`
	s := compileSet(t, mem, src)
	// Drive some state into each monitor.
	s.Deliver(startEv(1, "accel", simclock.Second, 2))                      // maxTries i=1, Started
	s.Deliver(endEv(2, "bodyTemp", 2*simclock.Second, 1))                   // collect i=1
	s.Deliver(endEv(3, "accel", 3*simclock.Second, 2))                      // MITD endB set
	s.Deliver(startEv(4, "send", simclock.Duration(20)*simclock.Minute, 2)) // MITD violation: attempts=1

	mt := s.Monitor("maxTries_accel")
	mitd := s.Monitor("MITD_send_accel")
	col := s.Monitor("collect_calcAvg_bodyTemp")

	if v, _ := mitd.VarValue("attempts"); v.I != 1 {
		t.Fatalf("MITD attempts = %v, want 1", v)
	}

	s.ResetPath(2)
	// maxTries (in-flight tracking) resets; MITD attempt counting survives.
	if v, _ := mt.VarValue("i"); v.I != 0 {
		t.Errorf("maxTries i = %v after ResetPath, want 0", v)
	}
	if mt.State() != "NotStarted" {
		t.Errorf("maxTries state = %q, want NotStarted", mt.State())
	}
	if v, _ := mitd.VarValue("attempts"); v.I != 1 {
		t.Errorf("MITD attempts = %v after ResetPath, want 1 (must survive)", v)
	}
	// Path 1's collect is untouched by resetting path 2.
	if v, _ := col.VarValue("i"); v.I != 1 {
		t.Errorf("collect i = %v, want 1", v)
	}
	// Resetting path 1 must also keep the collect count (accumulation).
	s.ResetPath(1)
	if v, _ := col.VarValue("i"); v.I != 1 {
		t.Errorf("collect i = %v after ResetPath(1), want 1 (accumulates)", v)
	}
}

func TestCrashDuringDeliverIsAtomic(t *testing.T) {
	// A power failure during a monitor's commit leaves it either entirely
	// before the event (re-delivery re-steps it) or entirely after
	// (re-delivery returns the stored verdict). Either way the final
	// configuration matches an uninterrupted delivery.
	for point := 1; point < 400; point += 7 {
		mem := nvm.New(64 * 1024)
		s := compileSet(t, mem, `accel { maxTries: 2 onFail: skipPath; }`)
		s.Deliver(startEv(1, "accel", simclock.Second, 2))

		ev := startEv(2, "accel", 2*simclock.Second, 2)
		mem.SetCrashHook(point, func() { panic(crash{}) })
		crashed := crashing(func() { s.Deliver(ev) })
		mem.SetCrashHook(0, nil)

		s.Rollback() // reboot
		fs, err := s.Deliver(ev)
		if err != nil {
			t.Fatalf("point %d: %v", point, err)
		}
		if len(fs) != 0 {
			t.Fatalf("point %d: unexpected failures %v", point, fs)
		}
		m := s.Monitor("maxTries_accel")
		if v, _ := m.VarValue("i"); v.I != 2 {
			t.Fatalf("point %d (crashed=%v): i = %v, want 2", point, crashed, v)
		}
		if !crashed {
			break // crash point beyond total writes: nothing left to test
		}
	}
}

// Property: delivering any event sequence is equivalent between a monitor
// set with persistent NVM state and plain volatile interpretation.
func TestPersistentMatchesVolatileProperty(t *testing.T) {
	src := `
accel { maxTries: 3 onFail: skipPath; }
send { maxDuration: 100ms onFail: skipTask; }
`
	res, err := transform.Compile(spec.MustParse(src), transform.Options{Graph: testGraph(t)})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []string{"accel", "send", "bodyTemp"}
	f := func(kinds []bool, sel []uint8, gaps []uint8) bool {
		mem := nvm.New(128 * 1024)
		s, err := NewSet(mem, res)
		if err != nil {
			return false
		}
		s.Reset()
		envs := make([]*ir.VolatileEnv, len(res.Program.Machines))
		for i, m := range res.Program.Machines {
			envs[i] = ir.NewVolatileEnv(m)
		}
		at := simclock.Duration(0)
		for i := range kinds {
			if i >= 50 {
				break
			}
			at += simclock.Duration(pick(gaps, i)) * simclock.Millisecond
			kind := ir.EvStart
			if kinds[i] {
				kind = ir.EvEnd
			}
			ev := ir.Event{Kind: kind, Task: tasks[pick(sel, i)%len(tasks)], Time: simclock.Time(at), Path: 2}
			got, err := s.Deliver(Event{Event: ev, Seq: uint64(i) + 1})
			if err != nil {
				return false
			}
			var want []ir.Failure
			for j, m := range res.Program.Machines {
				fs, err := ir.Step(m, envs[j], ev)
				if err != nil {
					return false
				}
				want = append(want, fs...)
			}
			if len(got) != len(want) {
				return false
			}
			for j := range got {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func pick(xs []uint8, i int) int {
	if len(xs) == 0 {
		return 1
	}
	return int(xs[i%len(xs)])
}

func TestDecide(t *testing.T) {
	fs := []ir.Failure{
		{Machine: "a", Action: action.SkipTask},
		{Machine: "b", Action: action.RestartPath, Path: 2},
		{Machine: "c", Action: action.RestartTask},
	}
	d := Decide(fs, 2)
	if d.Action != action.RestartPath || d.Machine != "b" || d.Path != 2 {
		t.Fatalf("Decide = %+v", d)
	}

	// Failures for other paths are ignored.
	d = Decide([]ir.Failure{{Machine: "x", Action: action.SkipPath, Path: 3}}, 2)
	if d.Action != action.None {
		t.Fatalf("cross-path decision = %+v", d)
	}

	// Path defaults to the current path.
	d = Decide([]ir.Failure{{Machine: "x", Action: action.SkipTask}}, 1)
	if d.Path != 1 {
		t.Fatalf("default path = %d, want 1", d.Path)
	}

	// Ties: first wins.
	d = Decide([]ir.Failure{
		{Machine: "first", Action: action.SkipPath},
		{Machine: "second", Action: action.SkipPath},
	}, 1)
	if d.Machine != "first" {
		t.Fatalf("tie decision = %+v", d)
	}

	// Empty: none.
	if d := Decide(nil, 1); d.Action != action.None {
		t.Fatalf("empty decision = %+v", d)
	}

	// completePath beats skipPath.
	d = Decide([]ir.Failure{
		{Machine: "a", Action: action.SkipPath},
		{Machine: "b", Action: action.CompletePath},
	}, 1)
	if d.Action != action.CompletePath {
		t.Fatalf("severity order wrong: %+v", d)
	}
}

func TestNewSetMismatchedBindings(t *testing.T) {
	res, err := transform.Compile(spec.MustParse(`accel { maxTries: 1 onFail: skipPath; }`),
		transform.Options{Graph: testGraph(t)})
	if err != nil {
		t.Fatal(err)
	}
	res.Bindings = nil
	if _, err := NewSet(nvm.New(1024), res); err == nil {
		t.Fatal("mismatched bindings accepted")
	}
}

// TestNewSetRejectsUncompilable: a hand-built, unchecked program whose
// machine the compiled engine cannot run (a string variable cannot persist)
// is an error, not a set that silently interprets it.
func TestNewSetRejectsUncompilable(t *testing.T) {
	res := &transform.Result{
		Program: &ir.Program{Machines: []*ir.Machine{{
			Name: "strvar", Initial: "S",
			Vars:   []ir.VarDecl{{Name: "s", Type: ir.TString, Init: ir.Str("")}},
			States: []ir.State{{Name: "S"}},
		}}},
		Bindings: []transform.Binding{{Machine: "strvar", Task: "x"}},
	}
	mem := nvm.New(64 * 1024)
	if set, err := NewSet(mem, res); err == nil || set != nil {
		t.Fatalf("uncompilable program accepted: %v", err)
	}
	if mem.Used() != 0 {
		t.Errorf("rejected set still allocated %d FRAM bytes", mem.Used())
	}
}

func TestRemoteDeployment(t *testing.T) {
	mem := nvm.New(64 * 1024)
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, &energy.Continuous{}, device.MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	res, err := transform.Compile(spec.MustParse(`accel { maxTries: 2 onFail: skipPath; }`),
		transform.Options{Graph: testGraph(t)})
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet(mem, res)
	if err != nil {
		t.Fatal(err)
	}
	cost := DefaultRadioCost()
	remote := NewRemote(set, mcu)
	remote.Reset()

	if remote.HostMachines() != 0 {
		t.Fatalf("HostMachines = %d, want 0 for remote", remote.HostMachines())
	}
	if set.HostMachines() != 1 {
		t.Fatalf("Set.HostMachines = %d, want 1", set.HostMachines())
	}

	// Each delivery costs one tx + one rx on the host.
	before := mcu.Supply.Drained()
	fs, err := remote.Deliver(startEv(1, "accel", simclock.Second, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("failures = %v", fs)
	}
	spent := float64(mcu.Supply.Drained() - before)
	minRadio := float64(cost.TxEnergy + cost.RxEnergy)
	if spent < minRadio {
		t.Fatalf("host spent %g J, want at least the radio energy %g J", spent, minRadio)
	}
	if mcu.Now() < simclock.Time(cost.TxLatency+cost.RxLatency) {
		t.Fatalf("host time %v below radio latency", mcu.Now())
	}

	// Verdicts flow back identically to a local deployment.
	remote.Deliver(startEv(2, "accel", 2*simclock.Second, 2))
	fs, err = remote.Deliver(startEv(3, "accel", 3*simclock.Second, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Action != action.SkipPath {
		t.Fatalf("failures = %v, want skipPath", fs)
	}

	// Reset commands also cross the radio.
	before = mcu.Supply.Drained()
	remote.ResetPath(2)
	if float64(mcu.Supply.Drained()-before) < float64(cost.TxEnergy) {
		t.Fatal("ResetPath did not charge the radio")
	}
	if remote.Set() != set {
		t.Fatal("wrapped set not exposed")
	}
	remote.Rollback() // no-op pass-through must not panic
}

func TestVerdictOverflowRejected(t *testing.T) {
	// A machine emitting more failures per event than the persistent
	// verdict slots can hold must surface an error, not corrupt state.
	prog := ir.MustParse(`
machine Flood {
    initial state S {
        on any -> S { fail skipTask; fail skipTask; fail skipTask; fail skipTask; fail skipTask; }
    }
}`)
	res := &transform.Result{
		Program:  prog,
		Bindings: []transform.Binding{{Machine: "Flood", Task: "x"}},
	}
	set, err := NewSet(nvm.New(64*1024), res)
	if err != nil {
		t.Fatal(err)
	}
	set.Reset()
	if _, err := set.Deliver(startEv(1, "x", simclock.Second, 1)); err == nil {
		t.Fatal("verdict overflow accepted")
	}
}

func TestMultipleVerdictsStoredAndReplayed(t *testing.T) {
	// Up to the slot capacity, several failures from one machine persist
	// and replay identically.
	prog := ir.MustParse(`
machine Duo {
    initial state S {
        on start -> S { fail skipTask; fail restartPath path 2; }
    }
}`)
	res := &transform.Result{
		Program:  prog,
		Bindings: []transform.Binding{{Machine: "Duo", Task: "x"}},
	}
	set, err := NewSet(nvm.New(64*1024), res)
	if err != nil {
		t.Fatal(err)
	}
	set.Reset()
	ev := startEv(1, "x", simclock.Second, 2)
	first, err := set.Deliver(ev)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := set.Deliver(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || len(replay) != 2 {
		t.Fatalf("verdicts = %v / %v", first, replay)
	}
	for i := range first {
		if first[i] != replay[i] {
			t.Fatalf("replay diverged: %v vs %v", first, replay)
		}
	}
	if first[1].Action != action.RestartPath || first[1].Path != 2 {
		t.Fatalf("second verdict = %v", first[1])
	}
}

// TestReplayOfFlippedWordIsDecodable flips, one at a time, every bit of
// every word of a committed monitor image that holds a verdict, then
// reboots and re-delivers the event that verdict answered, as the runtime
// does after a power failure. The replay may return an error or other
// verdicts, but it must not crash the host, and every verdict it returns
// must carry an action the runtime can take.
func TestReplayOfFlippedWordIsDecodable(t *testing.T) {
	const machine = "maxTries_accel"
	ev := startEv(2, "accel", 2*simclock.Second, 2)
	deploy := func() (*nvm.Memory, *Set) {
		mem := nvm.New(64 * 1024)
		s := compileSet(t, mem, `accel { maxTries: 1 onFail: skipPath; }`)
		if _, err := s.Deliver(startEv(1, "accel", simclock.Second, 2)); err != nil {
			t.Fatal(err)
		}
		if fs, err := s.Deliver(ev); err != nil || len(fs) != 1 {
			t.Fatalf("verdict = %v, %v; want one skipPath", fs, err)
		}
		return mem, s
	}
	_, s := deploy()
	words := s.Monitor(machine).env.c.Size() / 8
	for w := 0; w < words; w++ {
		for bit := 0; bit < 64; bit++ {
			mem, s := deploy()
			// The flip lands in both halves, so the committed one holds it
			// whichever the selector names.
			for _, a := range mem.Allocations() {
				if a.Name == machine+".a" || a.Name == machine+".b" {
					mem.FlipBit(a.Off+8*w+bit/8, uint(bit%8))
				}
			}
			s.Rollback()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("word %d bit %d: replay panicked: %v", w, bit, r)
					}
				}()
				fs, _ := s.Deliver(ev)
				if len(fs) > maxVerdicts {
					t.Errorf("word %d bit %d: %d verdicts replayed, max %d", w, bit, len(fs), maxVerdicts)
				}
				for _, f := range fs {
					if !f.Action.Valid() {
						t.Errorf("word %d bit %d: replayed verdict %v has no valid action", w, bit, f)
					}
				}
			}()
		}
	}
}
