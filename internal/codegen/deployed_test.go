package codegen_test

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/codegen"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// deployed is a monitor program that deployments step, with the task graph
// whose events it sees.
type deployed struct {
	name  string
	res   *transform.Result
	graph *task.Graph
}

// deployedPrograms returns the program of every example deployment and the
// OTA revision of the health spec.
func deployedPrograms(t *testing.T) []deployed {
	t.Helper()
	var out []deployed
	for _, c := range examplespecs.All() {
		cfg, err := c.Config()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		f, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		res := f.Compiled()
		f.Release()
		g := cfg.Graph
		if g == nil {
			// A BuildApp case builds its graph over an image.
			if g, _, err = cfg.BuildApp(nvm.New(256 * 1024)); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
		}
		out = append(out, deployed{c.Name, res, g})
	}
	v2, err := health.CompiledSharedV2()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, deployed{"health-v2", v2, health.New().Graph})
}

// TestDeployedMonitorsCompileTyped: every guard, if-condition and
// assignment that a deployment steps compiles to a typed closure, for
// every example deployment (all seven property kinds and hand-written IR)
// and the OTA revision of the health spec. The generic ir.Apply closures
// serve only shapes that can fail at run time, and none of these emit one.
func TestDeployedMonitorsCompileTyped(t *testing.T) {
	for _, p := range deployedPrograms(t) {
		total := 0
		for _, m := range p.res.Program.Machines {
			generic, sites := codegen.GenericSites(m)
			total += sites
			for _, g := range generic {
				t.Errorf("%s: machine %s: %s compiles to a generic closure", p.name, m.Name, g)
			}
		}
		if total == 0 {
			t.Errorf("%s: no guard, if-condition or assignment to check", p.name)
		}
		t.Logf("%s: %d sites", p.name, total)
	}
}

// TestDispatchTablePrecision pins the task table of every deployed
// program, which no equivalence test can see: a table that degraded to
// "every transition is a candidate" would still step every machine
// exactly. Each transition led by task == "lit" must be a candidate for
// that graph task only, and per program the table must rule out the
// pinned number of (machine, state, event kind, graph task) entries.
func TestDispatchTablePrecision(t *testing.T) {
	want := map[string]int{
		"health":     155,
		"greenhouse": 27,
		"camera":     52,
		"quickstart": 8,
		"customir":   1,
		"legacyspec": 67,
		"health-v2":  155,
	}
	for _, p := range deployedPrograms(t) {
		prog, err := p.res.Stepper()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		tasks := p.graph.TaskNames()
		ruledOut, entries := 0, 0
		for mi, m := range p.res.Program.Machines {
			cm := prog.Machine(mi)
			for si, st := range m.States {
				for ti, tr := range st.Transitions {
					lit, ok := ledByTask(tr.Guard)
					if !ok {
						continue
					}
					set := codegen.TransitionTasks(cm, si, ti)
					for _, name := range tasks {
						if got := set>>prog.TaskID(name)&1 != 0; got != (name == lit) {
							t.Errorf("%s: machine %s state %s transition %d [%s]: candidate for %s = %v",
								p.name, m.Name, st.Name, ti, tr.Guard, name, got)
						}
					}
				}
				for _, kind := range []ir.EventKind{ir.EvStart, ir.EvEnd} {
					for _, name := range tasks {
						entries++
						if !cm.Candidate(si, kind, prog.TaskID(name)) {
							ruledOut++
						}
					}
				}
			}
		}
		if ruledOut != want[p.name] {
			t.Errorf("%s: table rules out %d of %d entries, want %d", p.name, ruledOut, entries, want[p.name])
		}
	}
}

// ledByTask returns L when the leftmost leaf of guard's && chain is
// task == L for a string literal L.
func ledByTask(guard ir.Expr) (string, bool) {
	for {
		b, ok := guard.(ir.Binary)
		if !ok || b.Op != "&&" {
			break
		}
		guard = b.L
	}
	eq, ok := guard.(ir.Binary)
	if !ok || eq.Op != "==" {
		return "", false
	}
	id, ok := eq.L.(ir.Ident)
	lit, isLit := eq.R.(ir.Lit)
	if !ok || id.Name != "task" || !isLit || lit.V.T != ir.TString {
		return "", false
	}
	return lit.V.S, true
}
