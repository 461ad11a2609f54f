// Package ota implements over-the-air monitor reprogramming: versioned,
// checksummed spec bundles delivered chunk-by-chunk over the monitoring
// radio link, staged into an nvm.CommitGroup-guarded region, and activated
// by a single atomic selector flip that simultaneously swaps the active
// spec version and migrates live monitor FSM state. A failed or torn
// transfer rolls back to the previous bundle; the device is never left on
// a hybrid image.
//
// This makes the paper's adaptability claim operational: the monitor
// program changes on a running intermittent device without reflashing, without missing events, and with crash
// exploration proving the swap atomic at every NVM byte (the swap explorer
// in internal/chaos/swap_test.go: chaos.NewExplorer at byte granularity,
// windowed to the swap, with a swap oracle).
package ota

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// Bundle is one deployable monitor program image: the compiled spec (IR
// program plus property bindings) under a monotonic version number, and
// the FSM state-migration map that carries live monitor state across the
// swap. Machines present in the map migrate their mapped states; machines
// or states absent from the map reset to their initial configuration
// (per-path reset semantics).
type Bundle struct {
	Version uint64
	Result  *transform.Result
	// Migration maps machine -> old state name -> new state name. A nil or
	// partial map resets the uncovered machines/states.
	Migration map[string]map[string]string
}

// Checksum is the bundle integrity check: CRC-32 (IEEE) over the encoded
// payload, matching the integrity layer's guard polynomial family.
func Checksum(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// header is the wire preamble: magic, payload CRC, payload length.
const magic = "artemis-ota v1"

// Encode serialises the bundle into its transfer representation: a
// one-line header carrying the payload checksum, then a deterministic
// text payload — version, bindings, migration map, and the IR program via
// its canonical printer (ir.Program.String round-trips through ir.Parse).
func Encode(b *Bundle) ([]byte, error) {
	if b.Result == nil || b.Result.Program == nil {
		return nil, fmt.Errorf("ota: bundle has no compiled program")
	}
	if len(b.Result.Program.Machines) != len(b.Result.Bindings) {
		return nil, fmt.Errorf("ota: %d machines but %d bindings",
			len(b.Result.Program.Machines), len(b.Result.Bindings))
	}
	var p strings.Builder
	fmt.Fprintf(&p, "version %d\n", b.Version)
	fmt.Fprintf(&p, "bindings %d\n", len(b.Result.Bindings))
	for _, bd := range b.Result.Bindings {
		fmt.Fprintf(&p, "%s %s %d %d %s\n", bd.Machine, bd.Task, int(bd.Kind), bd.Path, encodePaths(bd.AllPaths))
	}
	// Deterministic map order: machines in program order, states in the
	// owning machine's state order (unknown names sort last, lexically).
	fmt.Fprintf(&p, "migration %d\n", countMigrations(b.Migration))
	for _, m := range b.Result.Program.Machines {
		states, ok := b.Migration[m.Name]
		if !ok {
			continue
		}
		for _, from := range sortedStates(states) {
			fmt.Fprintf(&p, "%s %s %s\n", m.Name, from, states[from])
		}
	}
	prog := b.Result.Program.String()
	fmt.Fprintf(&p, "program %d\n", len(prog))
	p.WriteString(prog)

	payload := p.String()
	head := fmt.Sprintf("%s %08x %d\n", magic, Checksum([]byte(payload)), len(payload))
	return []byte(head + payload), nil
}

// Decode parses and verifies a transfer representation: the header CRC
// must match the payload, the program must parse and check, and the
// binding count must match the machine count. Any mismatch is an error —
// the receiver rolls back rather than activating a damaged image.
func Decode(data []byte) (*Bundle, error) {
	nl := strings.IndexByte(string(data), '\n')
	if nl < 0 {
		return nil, fmt.Errorf("ota: truncated bundle header")
	}
	head := string(data[:nl])
	payload := data[nl+1:]
	var crc uint32
	var plen int
	if _, err := fmt.Sscanf(head, magic+" %08x %d", &crc, &plen); err != nil {
		return nil, fmt.Errorf("ota: bad bundle header %q: %w", head, err)
	}
	if plen != len(payload) {
		return nil, fmt.Errorf("ota: bundle payload %d bytes, header says %d", len(payload), plen)
	}
	if got := Checksum(payload); got != crc {
		return nil, fmt.Errorf("ota: bundle checksum %08x, header says %08x", got, crc)
	}
	return decodePayload(string(payload))
}

func decodePayload(payload string) (*Bundle, error) {
	b := &Bundle{}
	rest := payload
	line := func() (string, error) {
		nl := strings.IndexByte(rest, '\n')
		if nl < 0 {
			return "", fmt.Errorf("ota: truncated bundle payload")
		}
		l := rest[:nl]
		rest = rest[nl+1:]
		return l, nil
	}
	l, err := line()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(l, "version %d", &b.Version); err != nil {
		return nil, fmt.Errorf("ota: bad version line %q: %w", l, err)
	}
	if l, err = line(); err != nil {
		return nil, err
	}
	var nb int
	if _, err := fmt.Sscanf(l, "bindings %d", &nb); err != nil {
		return nil, fmt.Errorf("ota: bad bindings line %q: %w", l, err)
	}
	if nb < 0 {
		return nil, fmt.Errorf("ota: bad bindings line %q: negative count", l)
	}
	// The count comes off the wire: the slice grows with the lines that
	// are actually there instead of being sized from it.
	var bindings []transform.Binding
	for i := 0; i < nb; i++ {
		if l, err = line(); err != nil {
			return nil, err
		}
		bd, err := decodeBinding(l)
		if err != nil {
			return nil, err
		}
		bindings = append(bindings, bd)
	}
	if l, err = line(); err != nil {
		return nil, err
	}
	var nm int
	if _, err := fmt.Sscanf(l, "migration %d", &nm); err != nil {
		return nil, fmt.Errorf("ota: bad migration line %q: %w", l, err)
	}
	if nm < 0 {
		return nil, fmt.Errorf("ota: bad migration line %q: negative count", l)
	}
	for i := 0; i < nm; i++ {
		if l, err = line(); err != nil {
			return nil, err
		}
		f := strings.Fields(l)
		if len(f) != 3 {
			return nil, fmt.Errorf("ota: bad migration entry %q", l)
		}
		if b.Migration == nil {
			b.Migration = map[string]map[string]string{}
		}
		if b.Migration[f[0]] == nil {
			b.Migration[f[0]] = map[string]string{}
		}
		b.Migration[f[0]][f[1]] = f[2]
	}
	if l, err = line(); err != nil {
		return nil, err
	}
	var np int
	if _, err := fmt.Sscanf(l, "program %d", &np); err != nil {
		return nil, fmt.Errorf("ota: bad program line %q: %w", l, err)
	}
	if np != len(rest) {
		return nil, fmt.Errorf("ota: program %d bytes, payload says %d", len(rest), np)
	}
	prog, err := ir.Parse(rest)
	if err != nil {
		return nil, fmt.Errorf("ota: bundle program: %w", err)
	}
	if len(prog.Machines) != len(bindings) {
		return nil, fmt.Errorf("ota: %d machines but %d bindings", len(prog.Machines), len(bindings))
	}
	b.Result = &transform.Result{Program: prog, Bindings: bindings}
	return b, nil
}

func decodeBinding(l string) (transform.Binding, error) {
	f := strings.Fields(l)
	if len(f) != 5 {
		return transform.Binding{}, fmt.Errorf("ota: bad binding entry %q", l)
	}
	kind, err := strconv.Atoi(f[2])
	if err != nil {
		return transform.Binding{}, fmt.Errorf("ota: bad binding kind in %q: %w", l, err)
	}
	path, err := strconv.Atoi(f[3])
	if err != nil {
		return transform.Binding{}, fmt.Errorf("ota: bad binding path in %q: %w", l, err)
	}
	all, err := decodePaths(f[4])
	if err != nil {
		return transform.Binding{}, fmt.Errorf("ota: bad binding paths in %q: %w", l, err)
	}
	return transform.Binding{
		Machine: f[0], Task: f[1], Kind: spec.Kind(kind), Path: path, AllPaths: all,
	}, nil
}

func encodePaths(ps []int) string {
	if len(ps) == 0 {
		return "-"
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, ",")
}

func decodePaths(s string) ([]int, error) {
	if s == "-" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func countMigrations(m map[string]map[string]string) int {
	n := 0
	for _, states := range m {
		n += len(states)
	}
	return n
}

func sortedStates(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// Insertion sort: migration maps are a handful of states.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// AutoMigration builds the identity state-migration map between two
// programs: for every machine present in both, each state name that
// exists in both machines maps to itself. Machines or states absent from
// the new program reset; this is the right default for spec revisions
// that tweak bounds without reshaping the FSM (the common OTA case).
func AutoMigration(old, new *ir.Program) map[string]map[string]string {
	out := map[string]map[string]string{}
	for _, om := range old.Machines {
		var nm *ir.Machine
		for _, cand := range new.Machines {
			if cand.Name == om.Name {
				nm = cand
				break
			}
		}
		if nm == nil {
			continue
		}
		states := map[string]string{}
		for _, s := range om.States {
			if nm.StateIndex(s.Name) >= 0 {
				states[s.Name] = s.Name
			}
		}
		if len(states) > 0 {
			out[om.Name] = states
		}
	}
	return out
}
