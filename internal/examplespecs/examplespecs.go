// Package examplespecs exposes every runnable example's deployment — graph,
// property specification, and supply — as a reusable configuration. The
// examples under examples/ import these definitions instead of duplicating
// them, and the engine-equivalence harness (engines_test.go at the repo
// root) runs each case twice, once as deployed (compiled monitors) and once
// with its monitor set switched to the reference interpreter, and asserts
// byte-identical behaviour. A new example spec added here is automatically
// held to the compiled-vs-interpreted contract.
package examplespecs

import (
	"fmt"
	"sync"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/mayflyspec"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/simclock"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/transform"

	"github.com/tinysystems/artemis-go/internal/camera"
)

// Case is one example deployment, buildable repeatedly and
// deterministically: every Config() call yields a fresh configuration whose
// uninterrupted run performs the identical event and write sequence.
type Case struct {
	Name string
	// Config builds a fresh deployment configuration. Callers may attach
	// OnDecision observers, swap in a pre-compiled spec, etc. before handing
	// it to core.New.
	Config func() (core.Config, error)
}

// All returns every example deployment, in stable order.
func All() []Case {
	return []Case{
		{Name: "health", Config: HealthConfig},
		{Name: "greenhouse", Config: GreenhouseConfig},
		{Name: "camera", Config: CameraConfig},
		{Name: "quickstart", Config: QuickstartConfig},
		{Name: "customir", Config: CustomIRConfig},
		{Name: "legacyspec", Config: LegacySpecConfig},
	}
}

// HealthConfig is the paper's health-monitor benchmark under the
// evaluation's fixed-delay supply.
func HealthConfig() (core.Config, error) {
	app := health.New()
	return core.Config{
		System:     core.Artemis,
		Graph:      app.Graph,
		StoreKeys:  health.Keys(),
		SpecSource: health.SpecSource,
		Supply: core.SupplyConfig{
			Kind: core.SupplyFixedDelay, BudgetUJ: 900, Delay: 30 * simclock.Second,
		},
		MaxReboots: 400,
	}, nil
}

// QuickstartSpec is the two-property specification of examples/quickstart.
const QuickstartSpec = `
sample {
    maxTries: 5 onFail: skipPath;
}
report {
    maxDuration: 200ms onFail: skipTask;
}
`

// QuickstartGraph builds the sample → report application of
// examples/quickstart.
func QuickstartGraph() (*task.Graph, error) {
	sample := &task.Task{
		Name:        "sample",
		Cycles:      5_000,
		Peripherals: []string{"adc"},
		Run: func(c *task.Ctx) error {
			c.Set("reading", 21.5)
			c.Add("samples", 1)
			return nil
		},
	}
	report := &task.Task{
		Name:        "report",
		Cycles:      2_000,
		Peripherals: []string{"ble"},
		Run: func(c *task.Ctx) error {
			c.Add("reports", 1)
			return nil
		},
	}
	return task.NewGraph(&task.Path{ID: 1, Tasks: []*task.Task{sample, report}})
}

// QuickstartKeys lists quickstart's store outputs.
func QuickstartKeys() []string { return []string{"reading", "samples", "reports"} }

// QuickstartConfig is the smallest complete ARTEMIS deployment
// (examples/quickstart).
func QuickstartConfig() (core.Config, error) {
	graph, err := QuickstartGraph()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		System:     core.Artemis,
		Graph:      graph,
		StoreKeys:  QuickstartKeys(),
		SpecSource: QuickstartSpec,
		Supply: core.SupplyConfig{
			Kind: core.SupplyFixedDelay, BudgetUJ: 700, Delay: 30 * simclock.Second,
		},
		Rounds: 3,
	}, nil
}

// GreenhouseSpec is the property specification of examples/greenhouse.
const GreenhouseSpec = `
soilSense {
    period: 2min jitter: 30s onFail: restartPath maxAttempt: 4 onFail: skipPath;
    maxTries: 8 onFail: skipPath;
}

calcMoisture {
    collect: 5 dpTask: soilSense onFail: restartPath;
    dpData: moisture Range: [30, 100] onFail: completePath;
}

valve {
    maxDuration: 500ms onFail: skipTask;
}
`

// GreenhouseGraph builds the soilSense → calcMoisture → valve application
// of examples/greenhouse. The soil starts moist and dries a little with
// every sample, so a long enough run always ends in the dpData emergency
// opening the valve.
func GreenhouseGraph() (*task.Graph, error) {
	soilSense := &task.Task{
		Name:        "soilSense",
		Cycles:      3_000,
		Peripherals: []string{"adc"},
		Run: func(c *task.Ctx) error {
			reading := 60 - 3*c.Get("sampleCount")
			if reading < 5 {
				reading = 5 // fully dry soil still reads a little
			}
			c.Set("lastReading", reading)
			c.Add("readingSum", reading)
			c.Add("sampleCount", 1)
			return nil
		},
	}
	calcMoisture := &task.Task{
		Name:    "calcMoisture",
		Cycles:  4_000,
		DepData: "moisture",
		Run: func(c *task.Ctx) error {
			if n := c.Get("sampleCount"); n > 0 {
				c.Set("moisture", c.Get("readingSum")/n)
			}
			return nil
		},
	}
	valve := &task.Task{
		Name:        "valve",
		Cycles:      10_000,
		Peripherals: []string{"ble"}, // actuator command over radio
		Run: func(c *task.Ctx) error {
			if c.Get("moisture") < 30 {
				c.Add("irrigations", 1)
			}
			return nil
		},
	}
	return task.NewGraph(
		&task.Path{ID: 1, Tasks: []*task.Task{soilSense, calcMoisture, valve}},
	)
}

// GreenhouseKeys lists the greenhouse node's store outputs.
func GreenhouseKeys() []string {
	return []string{"lastReading", "readingSum", "sampleCount", "moisture", "irrigations"}
}

// GreenhouseConfig is the solar-harvesting greenhouse node of
// examples/greenhouse.
func GreenhouseConfig() (core.Config, error) {
	graph, err := GreenhouseGraph()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		System:     core.Artemis,
		Graph:      graph,
		StoreKeys:  GreenhouseKeys(),
		SpecSource: GreenhouseSpec,
		Supply: core.SupplyConfig{
			Kind:         core.SupplyHarvested,
			CapacitanceF: 470e-6, VMax: 5.0, VOn: 3.0, VOff: 1.8,
			HarvestW: 8e-6, // 8 µW of harvested solar power
		},
		Rounds:     12, // a day of sampling rounds
		MaxReboots: 5000,
	}, nil
}

// CameraConfig is the §4.2.2 camera node: chunked frame transfer with the
// minEnergy guard, built against the framework's NVM because its chunk
// queue closes over persistent structures.
func CameraConfig() (core.Config, error) {
	return core.Config{
		System:     core.Artemis,
		StoreKeys:  camera.Keys(),
		SpecSource: camera.SpecSource,
		Supply: core.SupplyConfig{
			Kind: core.SupplyFixedDelay, BudgetUJ: 1500, Delay: simclock.Minute,
		},
		Rounds:     2,
		MaxReboots: 400,
		BuildApp: func(mem *nvm.Memory) (*task.Graph, []task.Persistent, error) {
			app, err := camera.New(mem, 2)
			if err != nil {
				return nil, nil, err
			}
			return app.Graph, []task.Persistent{app.Chunks}, nil
		},
	}, nil
}

// CustomIRSource is the hand-written §3.3 escape-hatch machine of
// examples/customir: a duty-cycle alternation no Figure-5 construct covers.
const CustomIRSource = `
// Alternation: after a send completes, another send must not start until a
// sample has completed. Three violations in a row complete the path.
machine SendAlternation {
    var sent: bool = false
    var burst: int = 0
    initial state Watch {
        on end [task == "sample"] -> Watch { sent = false; burst = 0; }
        on end [task == "send" && !sent] -> Watch { sent = true; }
        on start [task == "send" && sent && burst < 2] -> Watch { burst = burst + 1; fail restartTask; }
        on start [task == "send" && sent && burst >= 2] -> Watch { burst = 0; sent = false; fail completePath; }
    }
}
`

// customIR parses the hand-written machine once per process: the source is
// a package constant, so one Result (and the compiled stepper it caches)
// serves every deployment, as health.CompiledShared does for the benchmark.
var customIR = sync.OnceValues(func() (*transform.Result, error) {
	prog, err := ir.Parse(CustomIRSource)
	if err != nil {
		return nil, err
	}
	return &transform.Result{
		Program: prog,
		Bindings: []transform.Binding{{
			Machine: "SendAlternation", Task: "send", AllPaths: []int{1, 2},
		}},
	}, nil
})

// CustomIRResult returns the hand-written machine, parsed and checked once
// per process and wrapped as a monitor program the way artemisgen wraps
// spec-derived machines. The Result is shared: callers must not modify it.
func CustomIRResult() (*transform.Result, error) { return customIR() }

// CustomIRConfig attaches the hand-written alternation machine to a
// two-path deployment whose merged "send" task violates the alternation
// deterministically — path 2 transmits without sampling — so both the
// restartTask and completePath arms execute.
func CustomIRConfig() (core.Config, error) {
	res, err := CustomIRResult()
	if err != nil {
		return core.Config{}, err
	}
	sample := &task.Task{
		Name:        "sample",
		Cycles:      4_000,
		Peripherals: []string{"adc"},
		Run: func(c *task.Ctx) error {
			c.Set("reading", 12.25)
			c.Add("samples", 1)
			return nil
		},
	}
	send := &task.Task{
		Name:        "send",
		Cycles:      6_000,
		Peripherals: []string{"ble"},
		Run: func(c *task.Ctx) error {
			c.Add("sends", 1)
			return nil
		},
	}
	graph, err := task.NewGraph(
		&task.Path{ID: 1, Tasks: []*task.Task{sample, send}},
		&task.Path{ID: 2, Tasks: []*task.Task{send}},
	)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		System:    core.Artemis,
		Graph:     graph,
		StoreKeys: []string{"reading", "samples", "sends"},
		Compiled:  res,
		Supply: core.SupplyConfig{
			Kind: core.SupplyFixedDelay, BudgetUJ: 800, Delay: 20 * simclock.Second,
		},
		Rounds:     4,
		MaxReboots: 400,
	}, nil
}

// LegacySpecConfig is examples/legacyspec's completing variant: the Mayfly
// health constraints translated by the mayflyspec frontend, augmented with
// the one native maxAttempt bound that breaks the restart-forever livelock.
func LegacySpecConfig() (core.Config, error) {
	src, err := legacySpec()
	if err != nil {
		return core.Config{}, err
	}
	app := health.New()
	return core.Config{
		System:     core.Artemis,
		Graph:      app.Graph,
		StoreKeys:  health.Keys(),
		SpecSource: src,
		Supply: core.SupplyConfig{
			Kind: core.SupplyFixedDelay, BudgetUJ: 800, Delay: 6 * simclock.Minute,
		},
		MaxReboots: 80,
	}, nil
}

// legacySpec translates and augments the legacy source once per process
// (both inputs are package constants) and returns the ARTEMIS spec text.
var legacySpec = sync.OnceValues(func() (string, error) {
	augmented, err := mayflyspec.Compile(mayflyspec.HealthSource)
	if err != nil {
		return "", err
	}
	found := false
	for i := range augmented.Blocks {
		if augmented.Blocks[i].Task != "send" {
			continue
		}
		for j := range augmented.Blocks[i].Props {
			p := &augmented.Blocks[i].Props[j]
			if p.Kind == spec.KindMITD {
				p.MaxAttempt = 3
				p.MaxAttemptAction = spec.ActionSkipPath
				found = true
			}
		}
	}
	if !found {
		return "", fmt.Errorf("examplespecs: no MITD property on send in the translated legacy spec")
	}
	return augmented.String(), nil
})
