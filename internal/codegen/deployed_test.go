package codegen_test

import (
	"testing"

	"github.com/tinysystems/artemis-go/internal/codegen"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/ir"
)

// TestDeployedMonitorsCompileTyped: every guard, if-condition and
// assignment that a deployment steps compiles to a typed closure, for
// every example deployment (all seven property kinds and hand-written IR)
// and the OTA revision of the health spec. The generic ir.Apply closures
// serve only shapes that can fail at run time, and none of these emit one.
func TestDeployedMonitorsCompileTyped(t *testing.T) {
	type program struct {
		name string
		prog *ir.Program
	}
	var progs []program
	for _, c := range examplespecs.All() {
		cfg, err := c.Config()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		f, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		progs = append(progs, program{c.Name, f.CompiledIR()})
		f.Release()
	}
	v2, err := health.CompiledSharedV2()
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, program{"health-v2", v2.Program})
	for _, p := range progs {
		total := 0
		for _, m := range p.prog.Machines {
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
