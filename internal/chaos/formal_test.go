package chaos

import (
	"slices"
	"testing"

	"github.com/tinysystems/artemis-go/internal/correctness"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
)

// TestEveryCaseEveryOracle crashes every example case after EVERY
// persistent write of its continuous run and requires all six oracles
// clean at every point: atomicity, consistency (every output equals the
// continuous run's), progress, idempotence (the case's Counters),
// re-execution isolation with committed-state reachability against the
// case's golden run (memory), and input re-collection (inputs).
func TestEveryCaseEveryOracle(t *testing.T) {
	oracles := []string{OracleAtomicity, OracleConsistency, OracleProgress, OracleIdempotence,
		correctness.OracleMemory, correctness.OracleInputs}
	for _, c := range examplespecs.All() {
		t.Run(c.Name, func(t *testing.T) {
			cfg, err := c.Config()
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Counters) == 0 {
				t.Fatal("case declares no Counters")
			}
			for _, k := range c.Counters {
				if !slices.Contains(cfg.StoreKeys, k) {
					t.Fatalf("counter %q is not among the store keys %v", k, cfg.StoreKeys)
				}
			}
			ex, err := NewFormalExplorer(c)
			if err != nil {
				t.Fatal(err)
			}
			ex.Workers = 2
			rep, err := ex.Run()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("\n%s", rep)
			if rep.Explored != rep.Writes {
				t.Fatalf("explored %d of %d write points", rep.Explored, rep.Writes)
			}
			for _, o := range oracles {
				if rep.OraclePass[o]+rep.OracleFail[o] != rep.Explored {
					t.Errorf("oracle %s judged %d of %d points", o, rep.OraclePass[o]+rep.OracleFail[o], rep.Explored)
				}
			}
			if rep.Failed != 0 {
				t.Fatalf("%d of %d crash points failed an oracle:\n%s", rep.Failed, rep.Explored, rep)
			}
		})
	}
}

// TestGoldenRunWARClean pins the acceptance property that building the
// formal explorer itself verifies the shipped workload hazard-free: the
// constructor refuses to produce an explorer when the golden continuous
// run exhibits a write-after-read hazard.
func TestGoldenRunWARClean(t *testing.T) {
	set, err := goldenImages(examplespecs.NewDeployer(examplespecs.Health()))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() < 2 {
		t.Fatalf("golden run reached only %d distinct committed images", set.Len())
	}
}
