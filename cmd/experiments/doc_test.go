package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exemptMark, on the line right before a fenced block's opening fence in
// EXPERIMENTS.md, exempts the block from TestExperimentsDocMatchesGolden:
//
//	<!-- doc-check: exempt, host benchmarks -->
const exemptMark = "<!-- doc-check: exempt"

// TestExperimentsDocMatchesGolden holds EXPERIMENTS.md to the paper record
// TestExperimentsGolden pins: every non-blank line of every fenced block,
// whitespace-normalised, must be a line of the golden output. A block that
// is not simulated output — a command, host benchmark timings, Table 2
// with the .text column the golden masks — carries exemptMark, so a new
// block is checked by default. Column widths may differ, and a block may
// show an excerpt of what the golden holds.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, l := range strings.Split(string(golden), "\n") {
		have[strings.Join(strings.Fields(l), " ")] = true
	}
	lines := strings.Split(string(doc), "\n")
	checked := 0
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "```") {
			continue
		}
		exempt := i > 0 && strings.HasPrefix(lines[i-1], exemptMark)
		if !exempt {
			checked++
		}
		for i++; i < len(lines) && !strings.HasPrefix(lines[i], "```"); i++ {
			l := strings.Join(strings.Fields(lines[i]), " ")
			if !exempt && l != "" && !have[l] {
				t.Errorf("EXPERIMENTS.md:%d is in no line of %s: %q", i+1, goldenPath, lines[i])
			}
		}
	}
	if checked == 0 {
		t.Fatal("EXPERIMENTS.md has no checked fenced block")
	}
	t.Logf("%d fenced blocks of EXPERIMENTS.md checked against %s", checked, goldenPath)
}
