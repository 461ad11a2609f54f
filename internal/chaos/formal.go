package chaos

import (
	"fmt"
	"sync"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/correctness"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/task"
)

// This file derives two more oracles from the formal memory-consistency
// definitions (internal/correctness): instead of invariants we wrote, the
// sweep checks the conditions under which a formal model says an
// intermittent execution equals SOME continuously-powered one —
// re-execution isolation ("memory", with committed-state reachability
// against a golden continuous run) and input re-collection ("inputs").

// formalState is the per-framework instrumentation a formal build carries:
// the read/write-set tracker and every committed store image the run made
// durable (captured at each commit-group flip and after each reboot).
type formalState struct {
	tracker *correctness.Tracker
	images  [][]byte
}

// deployFormal deploys d's case on continuous power with its task graph
// instrumented for read/write-set tracking (cfg.Graph, or the graph
// cfg.BuildApp returns), with committed-store images captured at every
// commit flip and reboot. Telemetry stays off: the observer and the
// uncharged PeekCommitted reads leave the energy model and write counts
// untouched, so crash schedules match the plain build.
func deployFormal(d *examplespecs.Deployer) (*core.Framework, *formalState, error) {
	st := &formalState{}
	f, err := d.Deploy(continuous(func(cfg *core.Config) {
		graph, build := cfg.Graph, cfg.BuildApp
		cfg.Graph = nil
		cfg.BuildApp = func(mem *nvm.Memory) (*task.Graph, []task.Persistent, error) {
			st.tracker = correctness.NewTracker(mem)
			g, extras := graph, []task.Persistent(nil)
			if build != nil {
				var err error
				if g, extras, err = build(mem); err != nil {
					return nil, nil, err
				}
			}
			g, err := st.tracker.InstrumentGraph(g)
			return g, extras, err
		}
	}))
	if err != nil {
		return nil, nil, err
	}
	capture := func() { st.images = append(st.images, committedStore(f)) }
	// The store commits through the runtime's shared group, so every task
	// boundary (and every monitor/event commit riding the same selector)
	// lands one image. The reboot hook catches the one state a crash
	// mid-commit can expose that no flip observer fires for.
	f.Store().Backing().Group().SetObserver(capture)
	f.OnReboot(func(int, simclock.Duration) {
		st.tracker.Reboot()
		capture()
	})
	return f, st, nil
}

// committedStore reads the store's committed image without charging the
// device for it.
func committedStore(f *core.Framework) []byte {
	b := f.Store().Backing()
	img := make([]byte, b.Size())
	b.PeekCommitted(img)
	return img
}

// goldenImages runs one continuously-powered instrumented deployment to
// completion and collects every committed store image it reached — the
// reachability set the formal "memory" oracle compares crashed runs
// against. It also proves the case's workload WAR-clean: a hazard here
// means the golden run itself read-then-wrote raw state.
func goldenImages(d *examplespecs.Deployer) (*correctness.ImageSet, error) {
	f, st, err := deployFormal(d)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	rep, err := f.Run()
	if err != nil {
		return nil, fmt.Errorf("chaos: golden continuous run failed: %w", err)
	}
	if !rep.Completed || rep.NonTerminated {
		return nil, fmt.Errorf("chaos: golden continuous run did not complete: %+v", rep.RunResult)
	}
	if hz := st.tracker.Hazards(); len(hz) != 0 {
		return nil, fmt.Errorf("chaos: golden run found WAR hazards in the workload:\n%s",
			correctness.FormatHazards(hz))
	}
	final := committedStore(f)
	set := correctness.NewImageSet(len(final))
	for _, img := range append(st.images, final) {
		set.Add(img)
	}
	return set, nil
}

// NewFormalExplorer builds the exhaustive crash explorer for one example
// case with the two formally-derived oracles on top of NewExplorer's four:
//
//   - "memory": no re-executed task observes a value its own interrupted
//     attempt wrote (re-execution isolation), and every committed store
//     image the crashed run made durable — including the post-reboot state
//     and the final state — is one the case's golden continuous run
//     reached (committed-state reachability).
//   - "inputs": the re-execution of a crash-interrupted task re-collects
//     the sensor inputs the interrupted attempt had consumed, rather than
//     replaying persisted samples.
//
// The tracker nearly doubles the cost of a crash point, so the formal
// oracles are their own explorer rather than a NewExplorer default.
func NewFormalExplorer(c examplespecs.Case) (*Explorer, error) {
	d := examplespecs.NewDeployer(c)
	golden, err := goldenImages(d)
	if err != nil {
		return nil, err
	}
	var states sync.Map // *core.Framework -> *formalState
	return &Explorer{
		Build: func() (*core.Framework, error) {
			f, st, err := deployFormal(d)
			if err != nil {
				return nil, err
			}
			states.Store(f, st)
			return f, nil
		},
		Keys:        storeKeys(d),
		ExactKeys:   c.Counters,
		PostOracles: []string{correctness.OracleMemory, correctness.OracleInputs},
		PostCheck: func(f *core.Framework, ref, got Outcome) []OracleFailure {
			v, ok := states.LoadAndDelete(f)
			if !ok {
				return []OracleFailure{{correctness.OracleMemory, "no tracker attached to the recovered framework"}}
			}
			st := v.(*formalState)
			var fails []OracleFailure
			for _, viol := range st.tracker.ReExecutionViolations() {
				fails = append(fails, OracleFailure{viol.Oracle, viol.Detail})
			}
			for _, img := range append(st.images, committedStore(f)) {
				if !golden.Contains(img) {
					fails = append(fails, OracleFailure{correctness.OracleMemory,
						fmt.Sprintf("committed store image unreachable by any continuous execution (%x)", img)})
					break
				}
			}
			for _, viol := range st.tracker.InputViolations() {
				fails = append(fails, OracleFailure{viol.Oracle, viol.Detail})
			}
			return fails
		},
	}, nil
}
