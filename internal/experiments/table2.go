package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/tinysystems/artemis-go/internal/artemis"
	"github.com/tinysystems/artemis-go/internal/codegen"
	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/freshness"
	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/integrity"
	"github.com/tinysystems/artemis-go/internal/mayfly"
	"github.com/tinysystems/artemis-go/internal/monitor"
	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/trace"
)

// Table2Row reports one component's memory requirements, the Table-2
// columns translated to this reproduction's measurable quantities:
//
//   - Text is the code-size proxy: bytes of the component's Go source, the
//     shared task-runtime kernel included for each runtime (for the
//     generated monitors, the bytes artemisgen emits for the benchmark).
//   - RAM is the volatile working set: the SRAM staging buffers of the
//     component's committed regions.
//   - FRAM is the measured persistent allocation from the NVM accountant.
type Table2Row struct {
	Component string
	Text      int
	RAM       int
	FRAM      int
}

// Table2 measures the memory requirements of the Mayfly runtime, the
// ARTEMIS runtime, and the generated ARTEMIS monitors for the benchmark
// application. The paper's structural claims: the decoupled ARTEMIS runtime
// needs less FRAM than Mayfly's (the property bookkeeping moved out), and
// the application-specific monitors carry the bulk of the persistent state.
func Table2(o Options) ([]Table2Row, error) {
	o = o.withDefaults()

	type t2run struct {
		name string
		sys  core.System
		hook func(*core.Config)
	}
	runs := []t2run{
		{"ARTEMIS", core.Artemis, nil},
		{"Mayfly", core.Mayfly, nil},
		{"Ocelot", core.Ocelot, nil},
		{"integrity", core.Artemis, func(cfg *core.Config) { cfg.Integrity = true }},
	}
	allocs, err := sweep(o, runs, func(_ int, r t2run) ([]nvm.Allocation, error) {
		f, err := deployHealth(r.sys, continuous(), o, r.hook)
		if err != nil {
			return nil, fmt.Errorf("table 2 (%s): %w", r.name, err)
		}
		defer f.Release()
		if _, err := f.Run(); err != nil {
			return nil, fmt.Errorf("table 2 (%s): %w", r.name, err)
		}
		return f.MCU().Mem.Allocations(), nil
	})
	if err != nil {
		return nil, err
	}
	art, may, oce, integ := allocs[0], allocs[1], allocs[2], allocs[3]

	res, err := health.CompiledShared()
	if err != nil {
		return nil, err
	}
	monSrc, err := codegen.Generate(res.Program, "monitors")
	if err != nil {
		return nil, err
	}

	// Every runtime walks the task graph through the shared cursor, so its
	// source counts toward each runtime's .text.
	kernel := sourceBytes("task/cursor.go")
	row := func(component string, text int, table []nvm.Allocation, owner string) Table2Row {
		r := Table2Row{Component: component, Text: text}
		for _, a := range table {
			if a.Owner != owner {
				continue
			}
			r.FRAM += a.Size
			// Each committed region keeps one payload-sized staging buffer
			// in SRAM, the size of its ".a" buffer; plain Vars stage nothing.
			if strings.HasSuffix(a.Name, ".a") {
				r.RAM += a.Size
			}
		}
		return r
	}
	return []Table2Row{
		row("Mayfly runtime", sourceBytes("mayfly/mayfly.go")+kernel, may, mayfly.Owner),
		// The Ocelot-style freshness enforcer is the leanest of the three:
		// the cursor words plus one timestamp slot per bounded producer, no
		// per-task/per-edge metadata, no monitors.
		row("Ocelot freshness runtime", sourceBytes("freshness/freshness.go")+kernel, oce, freshness.Owner),
		row("ARTEMIS runtime", sourceBytes("artemis/runtime.go")+kernel, art, artemis.Owner),
		row("ARTEMIS monitor (generated)", len(monSrc), art, monitor.Owner),
		// The optional self-healing layer (off by default): one
		// double-buffered 8-byte CRC per guarded region, plus two watchdog
		// words already counted in the runtime's control region above.
		row("ARTEMIS integrity guards (optional)", sourceBytes("integrity/integrity.go"), integ, integrity.Owner),
	}, nil
}

// sourceBytes reads the size of a component's Go source file as the .text
// proxy. The path is relative to the internal/ directory of this
// repository; the experiments run in-repo, so the file is reachable from
// this source file's location.
func sourceBytes(rel string) int {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return 0
	}
	p := filepath.Join(filepath.Dir(self), "..", rel)
	info, err := os.Stat(p)
	if err != nil {
		return 0
	}
	return int(info.Size())
}

// TableTable2 builds the memory-requirements table.
func TableTable2(rows []Table2Row) *trace.Table {
	t := trace.NewTable(
		"Table 2 — memory requirements (bytes; .text is a source-size proxy)",
		"component", ".text", "RAM", "FRAM")
	for _, r := range rows {
		t.AddRow(r.Component,
			fmt.Sprintf("%d", r.Text),
			fmt.Sprintf("%d", r.RAM),
			fmt.Sprintf("%d", r.FRAM))
	}
	return t
}

// RenderTable2 prints the memory-requirements table.
func RenderTable2(rows []Table2Row) string { return TableTable2(rows).Render() }
