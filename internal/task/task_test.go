package task

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/energy"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
)

func newCtx(t *testing.T, keys []string) *Ctx {
	t.Helper()
	mem := nvm.New(64 * 1024)
	mcu, err := device.NewMCU(&simclock.Clock{}, mem, &energy.Continuous{}, device.MSP430FR5994())
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(mem, "app", keys)
	if err != nil {
		t.Fatal(err)
	}
	return &Ctx{MCU: mcu, Store: store}
}

func TestNewGraphValidation(t *testing.T) {
	a := &Task{Name: "a"}
	b := &Task{Name: "b"}
	cases := []struct {
		name  string
		paths []*Path
	}{
		{"empty", nil},
		{"nil path", []*Path{nil}},
		{"zero id", []*Path{{ID: 0, Tasks: []*Task{a}}}},
		{"negative id", []*Path{{ID: -1, Tasks: []*Task{a}}}},
		{"dup id", []*Path{{ID: 1, Tasks: []*Task{a}}, {ID: 1, Tasks: []*Task{b}}}},
		{"empty path", []*Path{{ID: 1}}},
		{"nil task", []*Path{{ID: 1, Tasks: []*Task{nil}}}},
		{"unnamed task", []*Path{{ID: 1, Tasks: []*Task{{}}}}},
		{"name collision", []*Path{
			{ID: 1, Tasks: []*Task{{Name: "x"}}},
			{ID: 2, Tasks: []*Task{{Name: "x"}}},
		}},
	}
	for _, tc := range cases {
		if _, err := NewGraph(tc.paths...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestGraphSharedTaskOK(t *testing.T) {
	send := &Task{Name: "send"}
	g, err := NewGraph(
		&Path{ID: 1, Tasks: []*Task{{Name: "a"}, send}},
		&Path{ID: 2, Tasks: []*Task{{Name: "b"}, send}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if g.Task("send") != send {
		t.Fatal("shared task not resolvable")
	}
	ids := g.PathsContaining("send")
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("PathsContaining(send) = %v", ids)
	}
	if got := g.PathsContaining("a"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("PathsContaining(a) = %v", got)
	}
	if g.PathsContaining("zzz") != nil {
		t.Fatal("PathsContaining for unknown task non-nil")
	}
}

func TestGraphLookups(t *testing.T) {
	g, err := NewGraph(
		&Path{ID: 3, Tasks: []*Task{{Name: "b"}}},
		&Path{ID: 7, Tasks: []*Task{{Name: "a"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if g.PathByID(7) == nil || g.PathByID(4) != nil {
		t.Fatal("PathByID wrong")
	}
	if g.PathIndex(3) != 0 || g.PathIndex(7) != 1 || g.PathIndex(5) != -1 {
		t.Fatal("PathIndex wrong")
	}
	if names := g.TaskNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("TaskNames = %v, want sorted [a b]", names)
	}
	if g.Task("a") == nil || g.Task("nope") != nil {
		t.Fatal("Task lookup wrong")
	}
}

func TestStoreValidation(t *testing.T) {
	mem := nvm.New(1024)
	if _, err := NewStore(mem, "app", nil); err == nil {
		t.Error("empty store accepted")
	}
	if _, err := NewStore(mem, "app", []string{""}); err == nil {
		t.Error("empty slot name accepted")
	}
	if _, err := NewStore(mem, "app", []string{"x", "x"}); err == nil {
		t.Error("duplicate slot accepted")
	}
}

func TestStoreCommitRollback(t *testing.T) {
	mem := nvm.New(1024)
	s, err := NewStore(mem, "app", []string{"temp", "avg"})
	if err != nil {
		t.Fatal(err)
	}
	s.Set("temp", 36.6)
	s.Commit()
	s.Set("temp", 40.0)
	s.Set("avg", 1.0)
	s.Rollback()
	if s.Get("temp") != 36.6 || s.Get("avg") != 0 {
		t.Fatalf("rollback lost committed state: temp=%g avg=%g", s.Get("temp"), s.Get("avg"))
	}
	s.Set("avg", 37.0)
	s.Commit()
	if s.Get("temp") != 36.6 || s.Get("avg") != 37.0 {
		t.Fatalf("commit lost state: temp=%g avg=%g", s.Get("temp"), s.Get("avg"))
	}
}

func TestStoreAddAndHas(t *testing.T) {
	mem := nvm.New(1024)
	s, err := NewStore(mem, "app", []string{"n"})
	if err != nil {
		t.Fatal(err)
	}
	s.Add("n", 2)
	s.Add("n", 3)
	if s.Get("n") != 5 {
		t.Fatalf("n = %g, want 5", s.Get("n"))
	}
	if !s.Has("n") || s.Has("m") {
		t.Fatal("Has wrong")
	}
}

func TestStoreUnknownSlotPanics(t *testing.T) {
	mem := nvm.New(1024)
	s, err := NewStore(mem, "app", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown slot did not panic")
		}
	}()
	s.Get("y")
}

// Property: for any sequence of set/commit/rollback operations, Get reflects
// staged writes, and after a rollback it reflects exactly the last commit.
func TestStoreCommitSemanticsProperty(t *testing.T) {
	type op struct {
		Kind  uint8 // 0 set, 1 commit, 2 rollback
		Value float64
	}
	f := func(ops []op) bool {
		mem := nvm.New(4096)
		s, err := NewStore(mem, "app", []string{"x"})
		if err != nil {
			return false
		}
		var staged, committed float64
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0:
				s.Set("x", o.Value)
				staged = o.Value
			case 1:
				s.Commit()
				committed = staged
			case 2:
				s.Rollback()
				staged = committed
			}
			if s.Get("x") != staged {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTaskExecuteCostsAndRun(t *testing.T) {
	ctx := newCtx(t, []string{"temp"})
	ran := false
	tk := &Task{
		Name:        "bodyTemp",
		Cycles:      1000,
		Peripherals: []string{"adc"},
		Run: func(c *Ctx) error {
			ran = true
			c.Set("temp", 36.5)
			return nil
		},
	}
	if err := tk.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Run not invoked")
	}
	// 1000 cycles at 1 MHz = 1 ms, plus 1 ms ADC latency.
	if got := ctx.Now(); got != simclock.Time(2*simclock.Millisecond) {
		t.Fatalf("Now = %v, want 2ms", got)
	}
	if ctx.Get("temp") != 36.5 {
		t.Fatalf("temp = %g", ctx.Get("temp"))
	}
}

func TestTaskExecutePropagatesError(t *testing.T) {
	ctx := newCtx(t, []string{"x"})
	sentinel := errors.New("sensor broke")
	tk := &Task{Name: "t", Run: func(*Ctx) error { return sentinel }}
	if err := tk.Execute(ctx); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestTaskExecuteNilRun(t *testing.T) {
	ctx := newCtx(t, []string{"x"})
	tk := &Task{Name: "t", Cycles: 500}
	if err := tk.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Now() != simclock.Time(500*simclock.Microsecond) {
		t.Fatalf("Now = %v", ctx.Now())
	}
}

func TestCtxHelpers(t *testing.T) {
	ctx := newCtx(t, []string{"n"})
	ctx.Add("n", 4)
	ctx.Exec(100)
	ctx.Peripheral("adc")
	if ctx.Get("n") != 4 {
		t.Fatalf("n = %g", ctx.Get("n"))
	}
	if ctx.Now() == 0 {
		t.Fatal("time did not advance")
	}
}
