// Package parallel is the simulation fan-out executor: every evaluation
// artifact in this repository — figure sweeps, chaos campaigns, exhaustive
// crash exploration — is a loop of fully independent simulation runs (each
// core.New owns its own NVM, clock, and seeded RNG), and this package turns
// those loops into bounded worker pools without changing their output.
// Workers pull items themselves: each claims the next item from a shared
// atomic counter the moment it finishes the last, so a pool of short items
// (a crash point takes tens of microseconds) keeps every worker busy
// without a dispatcher goroutine in between.
//
// Determinism is the acceptance bar, not a nice-to-have: Map returns results
// in input order, so a caller that renders results sequentially produces
// byte-identical output at any worker count. Anything order- or
// randomness-dependent (sampled crash points, derived fault seeds) must be
// decided *before* the fan-out, never inside workers — see
// internal/chaos.FlipCampaign for the pre-draw pattern.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the pool size used when a caller passes workers <= 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// PanicError reports a panic captured inside a worker, attributed to the
// input item (for crash explorers: the crash point) whose fn panicked. The
// original stack is retained so the failure is debuggable even though it
// crossed a goroutine boundary.
type PanicError struct {
	// Index is the input-slice index of the item whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v", e.Index, e.Value)
}

// Map runs fn over every item with a bounded worker pool and returns the
// results in input order.
//
//   - workers <= 0 uses DefaultWorkers (one per CPU).
//   - workers == 1 runs inline on the calling goroutine — no goroutines at
//     all, the bisection-friendly sequential path.
//
// Otherwise workers goroutines each loop claiming the next position of the
// dispatch order from a shared atomic counter and running that item, while
// the caller waits. There is no dispatcher: a worker that finishes an item
// claims the next one itself, so it never waits for another goroutine to be
// scheduled before it can start. The caller does not work as one of the
// workers: measured on a 2-CPU host, that raised the fleet server's
// request-to-verdict p95 latency above even the dispatcher design's.
//
// The first error cancels the context passed to the remaining fn calls and
// stops new claims; in-flight items finish. After the pool drains, the
// error of the lowest-indexed failed item is returned (on the sequential
// path this is simply the first error in input order). A panic inside fn
// is captured and returned as a *PanicError carrying the item index, so
// one crashing simulation cannot take down a whole sweep unattributed.
//
// fn must not assume anything about execution order across items: only the
// result order is guaranteed. Items are independent simulations by
// contract; fn must not share mutable state between calls.
func Map[I, O any](ctx context.Context, items []I, workers int, fn func(ctx context.Context, index int, item I) (O, error)) ([]O, error) {
	out := make([]O, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 1 {
		for i := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := runItem(ctx, items, out, i, fn); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(items))

	// Positions are claimed in order; order (the test hook's permutation,
	// nil for in-order) maps a position to an item index — determinism
	// tests use it to prove output does not depend on which worker runs
	// which item first.
	order := dispatchOrder(len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for cctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				if order != nil {
					i = order[i]
				}
				if err := runItem(cctx, items, out, i, fn); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, ctx.Err()
}

// runItem executes fn for one item, converting a panic into a *PanicError.
func runItem[I, O any](ctx context.Context, items []I, out []O, i int, fn func(ctx context.Context, index int, item I) (O, error)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	o, err := fn(ctx, i, items[i])
	if err != nil {
		return err
	}
	out[i] = o
	return nil
}

// testOrder, when non-nil, permutes the dispatch order of the parallel
// path. Test-only; see SetDispatchOrderForTesting.
var (
	testOrderMu sync.Mutex
	testOrder   func(n int) []int
)

// SetDispatchOrderForTesting installs a permutation hook for the order in
// which workers on the parallel path claim items; determinism tests use it
// to prove rendered output is independent of scheduling. The hook receives
// the item count and must return a permutation of [0, n). Pass nil to
// restore in-order dispatch. Never use outside tests.
func SetDispatchOrderForTesting(fn func(n int) []int) {
	testOrderMu.Lock()
	testOrder = fn
	testOrderMu.Unlock()
}

func dispatchOrder(n int) []int {
	testOrderMu.Lock()
	hook := testOrder
	testOrderMu.Unlock()
	if hook != nil {
		if perm := hook(n); len(perm) == n {
			return perm
		}
	}
	return nil
}
