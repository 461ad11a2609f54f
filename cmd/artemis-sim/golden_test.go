package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current output")

// checkGolden compares got with the golden file at path byte for byte, or,
// under -update, rewrites the file with got.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden file (regenerate with -update)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
