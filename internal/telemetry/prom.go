package telemetry

import (
	"io"
	"slices"
	"strconv"
	"strings"
)

// Histogram is a cumulative histogram over fixed, ascending upper bounds:
// bucket i counts the observations at or below bound i, and the implicit
// +Inf bucket counts them all. Observe never allocates; the owner guards
// concurrent use.
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	count  uint64
}

// NewHistogram returns an empty histogram over bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	for i, le := range h.bounds {
		if v <= le {
			h.counts[i]++
		}
	}
	h.sum += v
	h.count++
}

// Clone returns a copy of h that later observations of h do not change.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = slices.Clone(h.counts)
	return &c
}

// Sample is one sample of a counter or gauge family: its label value
// (empty when the family has no label) and its value.
type Sample struct {
	Label string
	Value uint64
}

// SortedSamples returns m's entries as samples in ascending label order.
func SortedSamples(m map[string]uint64) []Sample {
	out := make([]Sample, 0, len(m))
	for k, v := range m {
		out = append(out, Sample{Label: k, Value: v})
	}
	slices.SortFunc(out, func(a, b Sample) int { return strings.Compare(a.Label, b.Label) })
	return out
}

// Exposition writes metric families in the Prometheus text format
// (MetricsContentType) line by line and keeps the first write error. Every
// family gets its HELP and TYPE lines, and samples come out in the order
// given. Nothing is registered: each surface renders a snapshot of state
// its owner keeps.
type Exposition struct {
	w    io.Writer
	line []byte
	err  error
}

// NewExposition returns an exposition that writes to w.
func NewExposition(w io.Writer) *Exposition { return &Exposition{w: w, line: make([]byte, 0, 128)} }

// Err returns the first write error, or nil; no write follows an error.
func (x *Exposition) Err() error { return x.err }

// Family writes a family of type typ ("counter" or "gauge"). With label
// empty its samples are unlabelled, otherwise labelled label="Sample.Label"
// (quoted as by %q).
func (x *Exposition) Family(typ, name, help, label string, samples ...Sample) {
	x.header(typ, name, help)
	for _, s := range samples {
		if label == "" {
			x.start(name)
		} else {
			x.start(name, "{", label, "=")
			x.line = append(strconv.AppendQuote(x.line, s.Label), '}')
		}
		x.end(s.Value)
	}
}

// Histogram writes h as a histogram family.
func (x *Exposition) Histogram(name, help string, h *Histogram) {
	x.header("histogram", name, help)
	for i, le := range h.bounds {
		x.start(name, `_bucket{le="`)
		x.line = append(strconv.AppendFloat(x.line, le, 'g', -1, 64), `"}`...)
		x.end(h.counts[i])
	}
	x.start(name, `_bucket{le="+Inf"}`)
	x.end(h.count)
	x.start(name, "_sum ")
	x.line = strconv.AppendFloat(x.line, h.sum, 'g', -1, 64)
	x.flush()
	x.start(name, "_count")
	x.end(h.count)
}

// header writes a family's HELP and TYPE lines, with one Write.
func (x *Exposition) header(typ, name, help string) {
	x.start("# HELP ", name, " ", help, "\n# TYPE ", name, " ", typ)
	x.flush()
}

// start begins a line with the concatenation of parts.
func (x *Exposition) start(parts ...string) {
	x.line = x.line[:0]
	for _, p := range parts {
		x.line = append(x.line, p...)
	}
}

// end finishes the line with a space and v, and writes it.
func (x *Exposition) end(v uint64) {
	x.line = strconv.AppendUint(append(x.line, ' '), v, 10)
	x.flush()
}

// flush writes the line, newline-terminated, unless a write failed before.
func (x *Exposition) flush() {
	if x.line = append(x.line, '\n'); x.err == nil {
		_, x.err = x.w.Write(x.line)
	}
}
