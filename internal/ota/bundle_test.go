package ota

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/health"
	"github.com/tinysystems/artemis-go/internal/transform"
)

func compiledPair(t *testing.T) (*Bundle, []byte) {
	t.Helper()
	v1, err := health.CompiledShared()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := health.CompiledSharedV2()
	if err != nil {
		t.Fatal(err)
	}
	b := &Bundle{
		Version:   2,
		Result:    v2,
		Migration: AutoMigration(v1.Program, v2.Program),
	}
	enc, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	return b, enc
}

func TestBundleRoundTrip(t *testing.T) {
	b, enc := compiledPair(t)
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != b.Version {
		t.Fatalf("version %d, want %d", got.Version, b.Version)
	}
	if got.Result.Program.String() != b.Result.Program.String() {
		t.Fatal("program did not round-trip")
	}
	if len(got.Result.Bindings) != len(b.Result.Bindings) {
		t.Fatalf("%d bindings, want %d", len(got.Result.Bindings), len(b.Result.Bindings))
	}
	for i, bd := range b.Result.Bindings {
		g := got.Result.Bindings[i]
		if g.Machine != bd.Machine || g.Task != bd.Task || g.Kind != bd.Kind || g.Path != bd.Path {
			t.Fatalf("binding %d: %+v, want %+v", i, g, bd)
		}
		if len(g.AllPaths) != len(bd.AllPaths) {
			t.Fatalf("binding %d paths: %v, want %v", i, g.AllPaths, bd.AllPaths)
		}
	}
	if len(got.Migration) != len(b.Migration) {
		t.Fatalf("migration machines %d, want %d", len(got.Migration), len(b.Migration))
	}
	for m, states := range b.Migration {
		for from, to := range states {
			if got.Migration[m][from] != to {
				t.Fatalf("migration %s/%s = %q, want %q", m, from, got.Migration[m][from], to)
			}
		}
	}
}

func TestBundleEncodingDeterministic(t *testing.T) {
	_, a := compiledPair(t)
	_, b := compiledPair(t)
	if string(a) != string(b) {
		t.Fatal("two encodings of the same bundle differ")
	}
}

func TestBundleCorruptionDetected(t *testing.T) {
	_, enc := compiledPair(t)
	// Flip one bit at every byte of the payload region in turn — far past
	// the header so the CRC guards the payload, not header parsing.
	for _, off := range []int{len(enc) / 2, len(enc) - 1, 40} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x01
		if _, err := Decode(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", off)
		}
	}
}

func TestBundleTruncationDetected(t *testing.T) {
	_, enc := compiledPair(t)
	for _, n := range []int{0, 5, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

func TestBundleHeaderMagicChecked(t *testing.T) {
	_, enc := compiledPair(t)
	bad := []byte("artemis-nope" + string(enc[12:]))
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestEncodeRejectsMismatchedBindings(t *testing.T) {
	b, _ := compiledPair(t)
	short := &transform.Result{
		Program:  b.Result.Program,
		Bindings: b.Result.Bindings[:len(b.Result.Bindings)-1],
	}
	if _, err := Encode(&Bundle{Version: 2, Result: short}); err == nil {
		t.Fatal("machine/binding count mismatch accepted")
	}
}

func TestAutoMigrationIdentityForRevision(t *testing.T) {
	// v2 is a bound-loosening revision of v1: same machines, same states.
	// AutoMigration must produce a full identity map, so every live FSM
	// state carries across the swap.
	v1, err := health.CompiledShared()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := health.CompiledSharedV2()
	if err != nil {
		t.Fatal(err)
	}
	mig := AutoMigration(v1.Program, v2.Program)
	if len(mig) != len(v1.Program.Machines) {
		t.Fatalf("migration covers %d of %d machines", len(mig), len(v1.Program.Machines))
	}
	for _, m := range v1.Program.Machines {
		states := mig[m.Name]
		if len(states) != len(m.States) {
			t.Fatalf("machine %s: %d of %d states mapped", m.Name, len(states), len(m.States))
		}
		for from, to := range states {
			if from != to {
				t.Fatalf("machine %s: %s -> %s not identity", m.Name, from, to)
			}
		}
	}
}

func TestAutoMigrationDropsRemovedMachines(t *testing.T) {
	v1, err := health.CompiledShared()
	if err != nil {
		t.Fatal(err)
	}
	// Old program vs itself minus one machine: the removed machine must not
	// appear in the map (it resets on swap).
	trimmed := *v1.Program
	trimmed.Machines = trimmed.Machines[:len(trimmed.Machines)-1]
	removed := v1.Program.Machines[len(v1.Program.Machines)-1].Name
	mig := AutoMigration(v1.Program, &trimmed)
	if _, ok := mig[removed]; ok {
		t.Fatalf("removed machine %s still in migration map", removed)
	}
	if len(mig) != len(trimmed.Machines) {
		t.Fatalf("migration covers %d machines, want %d", len(mig), len(trimmed.Machines))
	}
}

func TestChecksumMatchesHeader(t *testing.T) {
	_, enc := compiledPair(t)
	nl := strings.IndexByte(string(enc), '\n')
	payload := enc[nl+1:]
	var want uint32
	var plen int
	if _, err := fmt.Sscanf(string(enc[:nl]), magic+" %08x %d", &want, &plen); err != nil {
		t.Fatal(err)
	}
	if got := Checksum(payload); got != want {
		t.Fatalf("checksum %08x, header %08x", got, want)
	}
	if plen != len(payload) {
		t.Fatalf("header length %d, payload %d", plen, len(payload))
	}
}

// frame wraps payload in a valid transfer header, so Decode gets past the
// magic, length and checksum checks and parses the payload.
func frame(payload []byte) []byte {
	head := fmt.Sprintf("%s %08x %d\n", magic, Checksum(payload), len(payload))
	return append([]byte(head), payload...)
}

// TestDecodeRejectsHostileCounts: a well-framed bundle whose binding or
// migration count disagrees with its lines is an error, never a panic,
// and no count from the wire sizes an allocation.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	_, enc := compiledPair(t)
	payload := enc[bytes.IndexByte(enc, '\n')+1:]
	cases := []struct{ name, line, with string }{
		{"negative bindings", `bindings \d+`, "bindings -1"},
		{"bindings beyond int64", `bindings \d+`, "bindings 100000000000000000000"},
		{"bindings beyond any allocation", `bindings \d+`, "bindings 1000000000000000"},
		{"bindings beyond the lines present", `bindings \d+`, "bindings 100000000"},
		{"no bindings for the machines", `bindings \d+`, "bindings 0"},
		{"negative migration", `migration \d+`, "migration -1"},
		{"migration beyond the lines present", `migration \d+`, "migration 100000000"},
	}
	for _, tc := range cases {
		re := regexp.MustCompile(`(?m)^` + tc.line + `$`)
		if len(re.FindAll(payload, -1)) != 1 {
			t.Fatalf("%s: the encoded bundle has no single %q line", tc.name, tc.line)
		}
		bad := frame(re.ReplaceAll(payload, []byte(tc.with)))
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
	// The framing itself is sound: the untouched payload decodes.
	if _, err := Decode(frame(payload)); err != nil {
		t.Fatalf("re-framed bundle: %v", err)
	}
}

// FuzzDecode: Decode never panics, whatever the bytes. Each input is
// decoded as received and again behind a valid header, so the fuzzer
// reaches the payload parser instead of stopping at the checksum. The
// seeds are encoded health and health-v2 bundles.
func FuzzDecode(f *testing.F) {
	v1, err := health.CompiledShared()
	if err != nil {
		f.Fatal(err)
	}
	v2, err := health.CompiledSharedV2()
	if err != nil {
		f.Fatal(err)
	}
	for i, res := range []*transform.Result{v1, v2} {
		enc, err := Encode(&Bundle{Version: uint64(i + 1), Result: res, Migration: AutoMigration(v1.Program, res.Program)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[bytes.IndexByte(enc, '\n')+1:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, frame(data)} {
			if b, err := Decode(in); err == nil && (b == nil || b.Result == nil || b.Result.Program == nil) {
				t.Fatalf("Decode returned no bundle and no error for %q", in)
			}
		}
	})
}
