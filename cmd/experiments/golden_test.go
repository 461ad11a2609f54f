package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from the current output")

// goldenPath holds the full default output of experiments, Table 2's .text
// cells masked (see maskText).
var goldenPath = filepath.Join("testdata", "experiments.golden")

// TestExperimentsGolden pins every simulated number the paper record prints:
// the full default output must match the golden file byte for byte, at one
// worker and at one per CPU. A change that moves a figure, a table or a
// campaign tally shows up here as a diff; regenerate the file with
//
//	go test ./cmd/experiments -run TestExperimentsGolden -update
//
// and carry the new numbers into EXPERIMENTS.md.
func TestExperimentsGolden(t *testing.T) {
	var serial, fanned bytes.Buffer
	if err := run(nil, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-workers", "0"}, &fanned); err != nil {
		t.Fatal(err)
	}
	if serial.String() != fanned.String() {
		t.Fatalf("-workers 0 changed the output:\n%s", firstDiff(fanned.String(), serial.String()))
	}
	got := maskText(t, serial.String())
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (regenerate with -update):\n%s", goldenPath, firstDiff(got, string(want)))
	}
}

// cellGap separates the columns of a rendered trace.Table.
var cellGap = regexp.MustCompile(`\s{2,}`)

// maskText re-renders Table 2 with every .text cell replaced by "-". The
// column is a source-size proxy, the byte count of a few Go files, so an
// edited comment moves it while no simulated number moves.
func maskText(t *testing.T, out string) string {
	t.Helper()
	lines := strings.Split(out, "\n")
	i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "Table 2 ") })
	if i < 0 || i+3 > len(lines) {
		t.Fatal("output has no Table 2")
	}
	end := i + 3
	for end < len(lines) && lines[end] != "" {
		end++
	}
	tbl := trace.NewTable(lines[i], cellGap.Split(strings.TrimSpace(lines[i+1]), -1)...)
	for _, row := range lines[i+3 : end] {
		cells := cellGap.Split(strings.TrimSpace(row), -1)
		if len(cells) != len(tbl.Headers) || tbl.Headers[1] != ".text" {
			t.Fatalf("Table 2 row %q does not fit the header %q", row, tbl.Headers)
		}
		cells[1] = "-"
		tbl.AddRow(cells...)
	}
	masked := strings.Split(strings.TrimSuffix(tbl.Render(), "\n"), "\n")
	return strings.Join(slices.Replace(lines, i, end, masked...), "\n")
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}
