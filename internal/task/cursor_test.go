package task

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/device"
	"github.com/tinysystems/artemis-go/internal/nvm"
)

// newCursor places a cursor over a fresh control region of words words, at
// the given layout, over a two-path graph: path 1 runs a then b, path 2
// runs c.
func newCursor(t *testing.T, words, rounds int, at Layout) (Cursor, *nvm.Committed) {
	t.Helper()
	g, err := NewGraph(
		&Path{ID: 1, Tasks: []*Task{{Name: "a"}, {Name: "b"}}},
		&Path{ID: 2, Tasks: []*Task{{Name: "c"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := nvm.AllocCommitted(nvm.New(1024), "rt", "control", words*8)
	if err != nil {
		t.Fatal(err)
	}
	return NewCursor(ctl, g, rounds, at), ctl
}

// where renders the cursor's position as round/path/task, or done.
func where(c *Cursor) string {
	if c.Done() {
		return "done"
	}
	round, _, _ := c.Position()
	return fmt.Sprintf("r%d/p%d/%s", round, c.Path().ID, c.Task().Name)
}

func TestCursorWalksPathsAndRounds(t *testing.T) {
	c, _ := newCursor(t, 4, 2, Packed)
	var got []string
	for !c.Done() {
		got = append(got, where(&c))
		if !c.NextTask() {
			c.NextPath()
		}
	}
	want := "[r0/p1/a r0/p1/b r0/p2/c r1/p1/a r1/p1/b r1/p2/c]"
	if fmt.Sprint(got) != want {
		t.Fatalf("walk %v, want %s", got, want)
	}
	// Done leaves the last position in place.
	if round, path, task := c.Position(); round != 1 || path != 1 || task != 0 {
		t.Fatalf("done at round %d path %d task %d, want 1 1 0", round, path, task)
	}
}

func TestCursorNextTaskStopsAtPathEnd(t *testing.T) {
	c, _ := newCursor(t, 4, 1, Packed)
	if !c.NextTask() || c.Task().Name != "b" {
		t.Fatalf("NextTask from a: at %s", where(&c))
	}
	if c.NextTask() || c.Task().Name != "b" {
		t.Fatalf("NextTask past the path end moved to %s", where(&c))
	}
	c.Rewind()
	if where(&c) != "r0/p1/a" {
		t.Fatalf("Rewind: at %s", where(&c))
	}
}

func TestCursorNextRoundEndsWalk(t *testing.T) {
	c, _ := newCursor(t, 4, 0, Packed) // rounds <= 0 means one
	c.NextTask()
	c.NextRound()
	if !c.Done() {
		t.Fatalf("NextRound in the only round: at %s", where(&c))
	}
	c.Reset()
	if where(&c) != "r0/p1/a" {
		t.Fatalf("Reset: at %s", where(&c))
	}
}

// TestCursorLayout checks the cursor touches exactly its four words, so a
// runtime can keep its own words between them.
func TestCursorLayout(t *testing.T) {
	at := Layout{Path: 0, Task: 1, Round: 3, Done: 4}
	c, ctl := newCursor(t, 6, 3, at)
	ctl.WriteUint64(2*8, 7)
	ctl.WriteUint64(5*8, 9)
	c.NextTask()
	c.NextPath()
	c.NextPath()
	if round, path, task := c.Position(); round != 1 || path != 0 || task != 0 {
		t.Fatalf("position %d %d %d, want round 1 path 0 task 0", round, path, task)
	}
	if w := ctl.ReadUint64(3 * 8); w != 1 {
		t.Fatalf("round word %d, want 1", w)
	}
	if ctl.ReadUint64(2*8) != 7 || ctl.ReadUint64(5*8) != 9 {
		t.Fatal("cursor wrote outside its layout")
	}
}

func TestCursorCheck(t *testing.T) {
	for _, tc := range []struct {
		word int
		val  uint64
		want string
	}{
		{0, 2, "path index 2"},
		{1, 5, "task index 5"},
		{1, 1 << 63, "task index"},
		{2, 3, "round 3"},
	} {
		c, ctl := newCursor(t, 4, 3, Packed)
		if err := c.Check(); err != nil {
			t.Fatalf("fresh cursor: %v", err)
		}
		ctl.WriteUint64(tc.word*8, tc.val)
		err := c.Check()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("word %d = %d: err %v, want ErrCorrupt mentioning %q", tc.word, tc.val, err, tc.want)
		}
		// A done cursor indexes nothing, so nothing is checked.
		ctl.WriteUint64(3*8, 1)
		if err := c.Check(); err != nil {
			t.Errorf("done cursor with word %d = %d: %v", tc.word, tc.val, err)
		}
	}
}

func TestCtxRunAccountsToApp(t *testing.T) {
	ctx := newCtx(t, []string{"x"})
	ctx.MCU.SetComponent(device.CompRuntime)
	sentinel := errors.New("sensor broke")
	ok := &Task{Name: "ok", Cycles: 1000, Run: func(c *Ctx) error {
		if c.Task.Name != "ok" {
			t.Errorf("ctx task %q, want ok", c.Task.Name)
		}
		c.Set("x", 1)
		return nil
	}}
	if err := ctx.Run(ok); err != nil {
		t.Fatal(err)
	}
	if ctx.Get("x") != 1 || ctx.MCU.UsageOf(device.CompApp).Time == 0 {
		t.Fatalf("x = %g, app time %v", ctx.Get("x"), ctx.MCU.UsageOf(device.CompApp).Time)
	}
	bad := &Task{Name: "bad", Run: func(*Ctx) error { return sentinel }}
	if err := ctx.Run(bad); !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "task bad") {
		t.Fatalf("err = %v, want the task's error wrapped with its name", err)
	}
	if prev := ctx.MCU.SetComponent(device.CompRuntime); prev != device.CompRuntime {
		t.Fatalf("Run left the component at %s", prev)
	}
}
