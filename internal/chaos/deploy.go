package chaos

import (
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
)

// continuous returns the adjustment every crash sweep and every campaign
// but the flip campaign deploys its case with: continuous power, then mut
// (nil for none) on top.
func continuous(mut func(cfg *core.Config)) func(cfg *core.Config) {
	return func(cfg *core.Config) {
		cfg.Supply = core.SupplyConfig{Kind: core.SupplyContinuous}
		if mut != nil {
			mut(cfg)
		}
	}
}

// storeKeys returns the store outputs of d's case; nil when the case does
// not build, whose error every deployment then returns.
func storeKeys(d *examplespecs.Deployer) []string {
	cfg, _ := d.Config()
	return cfg.StoreKeys
}

// NewExplorer builds the exhaustive NVM-write-granularity crash explorer
// for one example case on continuous power; mut (nil for none) adjusts
// every deployment's configuration. Every store output must equal the
// reference run's after any single crash (consistency), and the case's
// Counters key the idempotence oracle.
func NewExplorer(c examplespecs.Case, mut func(cfg *core.Config)) *Explorer {
	return explorerOf(examplespecs.NewDeployer(c).With(continuous(mut)), c.Counters)
}

// explorerOf is the crash explorer over d's deployments, with exact
// counters. The reference run's deployment and every point's are d's
// Deploy(nil), so each point resumes on a re-armed deployment.
func explorerOf(d *examplespecs.Deployer, counters []string) *Explorer {
	return &Explorer{
		Build:     func() (*core.Framework, error) { return d.Deploy(nil) },
		Keys:      storeKeys(d),
		ExactKeys: counters,
	}
}
