package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 4, 0} {
		got, err := Map(context.Background(), items, workers, func(_ context.Context, idx int, item int) (int, error) {
			return item * item, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), nil, 4, func(_ context.Context, _ int, _ int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

func TestMapFirstErrorLowestIndex(t *testing.T) {
	items := make([]int, 50)
	errA := errors.New("fail 7")
	errB := errors.New("fail 30")
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), items, workers, func(_ context.Context, idx int, _ int) (int, error) {
			switch idx {
			case 7:
				return 0, errA
			case 30:
				return 0, errB
			}
			return 0, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want lowest-index error %v", workers, err, errA)
		}
	}
}

func TestMapErrorCancelsRemaining(t *testing.T) {
	items := make([]int, 1000)
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), items, 2, func(ctx context.Context, idx int, _ int) (int, error) {
		ran.Add(1)
		if idx == 0 {
			return 0, boom
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if n := ran.Load(); n == int64(len(items)) {
		t.Fatalf("cancellation did not stop dispatch: all %d items ran", n)
	}
}

func TestMapPanicAttribution(t *testing.T) {
	items := make([]int, 20)
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), items, workers, func(_ context.Context, idx int, _ int) (int, error) {
			if idx == 13 {
				panic("unlucky")
			}
			return 0, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want *PanicError", workers, err)
		}
		if pe.Index != 13 || pe.Value != "unlucky" {
			t.Fatalf("workers=%d: got index %d value %v", workers, pe.Index, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic stack not captured", workers)
		}
	}
}

func TestMapContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := Map(ctx, make([]int, 10), workers, func(_ context.Context, _ int, _ int) (int, error) {
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

func TestMapShuffledDispatchKeepsOrder(t *testing.T) {
	SetDispatchOrderForTesting(func(n int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = n - 1 - i
		}
		return perm
	})
	defer SetDispatchOrderForTesting(nil)

	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf("item-%02d", i)
	}
	got, err := Map(context.Background(), items, 4, func(_ context.Context, idx int, item string) (string, error) {
		return item + "!", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if want := fmt.Sprintf("item-%02d!", i); v != want {
			t.Fatalf("got[%d] = %q, want %q", i, v, want)
		}
	}
}

// TestMapRunsEachItemOnce checks the claim loop hands every index to
// exactly one worker, in order and under a permuted dispatch, with more
// workers than CPUs and with the item count not a multiple of the workers.
func TestMapRunsEachItemOnce(t *testing.T) {
	reverse := func(n int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = n - 1 - i
		}
		return perm
	}
	defer SetDispatchOrderForTesting(nil)
	for _, hook := range []func(int) []int{nil, reverse} {
		SetDispatchOrderForTesting(hook)
		for _, workers := range []int{2, 3, 8} {
			runs := make([]atomic.Int32, 997)
			_, err := Map(context.Background(), make([]struct{}, len(runs)), workers, func(_ context.Context, idx int, _ struct{}) (struct{}, error) {
				runs[idx].Add(1)
				return struct{}{}, nil
			})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range runs {
				if n := runs[i].Load(); n != 1 {
					t.Fatalf("workers=%d permuted=%v: item %d ran %d times", workers, hook != nil, i, n)
				}
			}
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}
