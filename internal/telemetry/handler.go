package telemetry

import (
	"bytes"
	"io"
	"net/http"
)

// MetricsContentType is the Prometheus text exposition format version every
// exporter in this repository emits (text/plain; version=0.0.4). Scrapers
// negotiate on it; serving metrics under a bare text/plain makes strict
// clients re-request or mis-parse.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler wraps any metrics writer — Tracer.Metrics,
// fleet.Engine.WriteMetrics, the fleet server's combined snapshot — as an
// http.Handler that serves the output with the correct Prometheus
// exposition Content-Type, so callers stop hand-rolling headers.
//
// The writer runs against a buffer first: an error mid-render becomes a
// clean 500 instead of a torn 200 body, so the handler never serves a
// partial exposition.
func MetricsHandler(write func(io.Writer) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			http.Error(w, "metrics: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", MetricsContentType)
		w.Write(buf.Bytes())
	})
}
