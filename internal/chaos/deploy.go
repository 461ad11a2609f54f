package chaos

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
)

// deployer deploys one example case on continuous power. It builds the
// case's configuration once and compiles its monitor program once; every
// deployment gets its own copy of that configuration, so the task graph and
// the compiled program are shared by every deployment, concurrent workers
// included. Both are immutable and the tasks keep their state in the
// store, so building them per crash point would only make garbage (about a
// quarter of a point's heap allocations).
type deployer struct {
	cfg core.Config
	// err is the case's build or compile error; every deploy returns it,
	// so constructors that cannot fail still report it from their first run.
	err error
}

func newDeployer(c examplespecs.Case) *deployer {
	cfg, err := c.Config()
	if err == nil {
		cfg.Compiled, err = examplespecs.Compile(c)
	}
	if err != nil {
		return &deployer{err: fmt.Errorf("chaos: case %s: %w", c.Name, err)}
	}
	cfg.SpecSource = ""
	cfg.Supply = core.SupplyConfig{Kind: core.SupplyContinuous}
	return &deployer{cfg: cfg}
}

// deploy builds one deployment; mut, when non-nil, adjusts its copy of the
// configuration first.
func (d *deployer) deploy(mut func(cfg *core.Config)) (*core.Framework, error) {
	if d.err != nil {
		return nil, d.err
	}
	cfg := d.cfg
	if mut != nil {
		mut(&cfg)
	}
	return core.New(cfg)
}

// NewExplorer builds the exhaustive NVM-write-granularity crash explorer
// for one example case on continuous power; mut (nil for none) adjusts
// every deployment's configuration. Every store output must equal the
// reference run's after any single crash (consistency), and the case's
// Counters key the idempotence oracle.
func NewExplorer(c examplespecs.Case, mut func(cfg *core.Config)) *Explorer {
	d := newDeployer(c)
	return &Explorer{
		Build:     func() (*core.Framework, error) { return d.deploy(mut) },
		Keys:      d.cfg.StoreKeys,
		ExactKeys: c.Counters,
	}
}
