package telemetry

import (
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsHandlerContentType pins the exposition headers and body: the
// handler must serve the writer's output verbatim under the Prometheus
// text-format Content-Type.
func TestMetricsHandlerContentType(t *testing.T) {
	h := MetricsHandler(func(w io.Writer) error {
		x := NewExposition(w)
		x.Family("counter", "artemis_fleet_device_steps_total", "Device runs executed per shard.", "shard",
			Sample{Label: "0", Value: 4})
		return x.Err()
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != MetricsContentType {
		t.Errorf("Content-Type %q, want %q", ct, MetricsContentType)
	}
	if !strings.HasPrefix(MetricsContentType, "text/plain; version=0.0.4") {
		t.Errorf("MetricsContentType %q is not the 0.0.4 text exposition", MetricsContentType)
	}
	if body := rec.Body.String(); !strings.Contains(body, `artemis_fleet_device_steps_total{shard="0"} 4`) {
		t.Errorf("body missing fleet series:\n%s", body)
	}
}

// TestMetricsHandlerWriterError checks a failing writer yields a clean 500
// with no partial exposition served as a 200.
func TestMetricsHandlerWriterError(t *testing.T) {
	h := MetricsHandler(func(w io.Writer) error {
		io.WriteString(w, "partial 1\n")
		return errors.New("boom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 500 {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "partial") {
		t.Error("partial exposition leaked into the error response")
	}
}
