package fleetserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"github.com/tinysystems/artemis-go/internal/telemetry"
)

// Request limits. A count above maxRegisterCount is a 400, and a POST body
// longer than maxBodyBytes a 413, so that one request cannot make the
// server allocate without bound.
const (
	maxRegisterCount = 4096
	maxBodyBytes     = 1 << 20
)

// registerRequest is the POST /v1/devices body. Count registers a batch of
// identically-specced devices with generated ids (0 means one, at most
// maxRegisterCount).
type registerRequest struct {
	ID    string `json:"id,omitempty"`
	Spec  string `json:"spec"`
	Count int    `json:"count,omitempty"`
}

// batchRequest is the POST /v1/events:batch body.
type batchRequest struct {
	Events []Event `json:"events"`
}

// statusResponse is the GET /healthz body and the generic error envelope.
type statusResponse struct {
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
	Devices int    `json:"devices,omitempty"`
	Steps   uint64 `json:"steps,omitempty"`
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/devices        register a device (or a batch via count,
//	                          at most maxRegisterCount)
//	GET    /v1/devices        list devices in registration order
//	GET    /v1/devices/{id}   one device's live monitoring state
//	DELETE /v1/devices/{id}   unregister; responds only after the device
//	                          can no longer be stepped
//	POST   /v1/events:batch   ingest events; 429 + Retry-After on a full
//	                          device queue (retry after the next step)
//	GET    /metrics           Prometheus text exposition
//	GET    /healthz           liveness + registry size
//	GET    /                  embedded HTML dashboard
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/devices", s.handleRegister)
	mux.HandleFunc("GET /v1/devices", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Devices())
	})
	mux.HandleFunc("GET /v1/devices/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Device(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/devices/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Unregister(r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/events:batch", s.handleBatch)
	mux.Handle("GET /metrics", telemetry.MetricsHandler(s.WriteMetrics))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, statusResponse{
			Status: "ok", Devices: s.DeviceCount(), Steps: s.Steps(),
		})
	})
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	return mux
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Count <= 0 {
		req.Count = 1
	}
	if req.Count > maxRegisterCount {
		writeJSON(w, http.StatusBadRequest, statusResponse{Status: "error",
			Error: fmt.Sprintf("count %d above the limit of %d per request", req.Count, maxRegisterCount)})
		return
	}
	if req.Count > 1 && req.ID != "" {
		writeJSON(w, http.StatusBadRequest, statusResponse{Status: "error", Error: "count > 1 requires generated ids (omit id)"})
		return
	}
	var states []DeviceState
	for i := 0; i < req.Count; i++ {
		st, err := s.Register(req.ID, req.Spec)
		if err != nil {
			writeError(w, err)
			return
		}
		states = append(states, st)
	}
	if len(states) == 1 {
		writeJSON(w, http.StatusCreated, states[0])
		return
	}
	writeJSON(w, http.StatusCreated, states)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.Ingest(req.Events)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrQueueFull):
			code = http.StatusTooManyRequests
			// The backlog drains on the next step; one interval is the
			// honest wait.
			w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg)))
		case errors.Is(err, ErrNotFound):
			code = http.StatusNotFound
		case errors.Is(err, ErrClosed):
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, struct {
			IngestResult
			Error string `json:"error"`
		}{res, err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// decodeBody decodes a POST body of at most maxBodyBytes into v. On failure
// it writes the error response, 413 for a body over the limit and 400 for
// bad JSON, and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, statusResponse{Status: "error",
			Error: fmt.Sprintf("request body over the limit of %d bytes", maxBodyBytes)})
		return false
	}
	writeJSON(w, http.StatusBadRequest, statusResponse{Status: "error", Error: "bad JSON: " + err.Error()})
	return false
}

// retryAfterSeconds rounds the step interval up to whole seconds, at least
// 1, the finest wait the Retry-After header can express: a client that
// waits that long retries after the step that drains the queue.
func retryAfterSeconds(cfg Config) int {
	secs := int(math.Ceil(cfg.StepInterval.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps registry errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrUnknownSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrDuplicateID):
		code = http.StatusConflict
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, statusResponse{Status: "error", Error: err.Error()})
}
