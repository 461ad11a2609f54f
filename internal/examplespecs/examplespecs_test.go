package examplespecs

import (
	"fmt"
	"sync"
	"testing"

	"github.com/tinysystems/artemis-go/internal/core"
)

// TestDeployerReleaseIdempotent holds Release to one shot per handle
// through a Deployer, whose next Deploy(nil) re-arms the released
// deployment: a second Release through the stale handle must not put the
// next user's live deployment back on the free list.
func TestDeployerReleaseIdempotent(t *testing.T) {
	d := NewDeployer(Health())
	deploy := func() *core.Framework {
		f, err := d.Deploy(nil)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1 := deploy()
	f1.Release()
	f2 := deploy() // re-arms f1's deployment
	if f2.MCU() != f1.MCU() {
		t.Fatal("Deploy(nil) built a deployment instead of re-arming the released one")
	}
	f1.Release() // stale handle: must be a no-op
	f3 := deploy()
	if f2.MCU() == f3.MCU() || f2.MCU().Mem == f3.MCU().Mem {
		t.Fatal("double Release leaked an in-use deployment back into the deployer")
	}
	f2.Release()
	f3.Release()
}

// TestDeployerConcurrentRelease deploys, runs and releases the same
// cases' deployments from several goroutines at once, as fleet shards on
// several workers do; under the race detector it checks the deployer's
// free list. Every run must end as the first deployment's run did.
func TestDeployerConcurrentRelease(t *testing.T) {
	const goroutines, rounds = 4, 8
	for _, c := range All() {
		d := NewDeployer(c)
		outcome := func() (string, error) {
			f, err := d.Deploy(nil)
			if err != nil {
				return "", err
			}
			defer f.Release()
			rep, err := f.Run()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%x %+v", f.MCU().Mem.Hash(), rep.RunResult), nil
		}
		want, err := outcome()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, goroutines*rounds)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					got, err := outcome()
					if err == nil && got != want {
						err = fmt.Errorf("run ended %s, want %s", got, want)
					}
					if err != nil {
						errs <- err
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}
