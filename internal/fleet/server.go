package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// CoordinatorServer is the HTTP face of a Coordinator and of the
// campaign.Manager that runs its jobs, served by xtalkd -role coordinator.
//
//	POST /v1/fleet/workers    register a worker / refresh its heartbeat;
//	                          400 for metrics that do not parse or would
//	                          not federate, 413 for a body over
//	                          obs.MaxExpositionBytes
//	GET  /v1/fleet/workers    registry snapshot
//	/v1/campaigns...          the job API of campaign.Server: every job
//	                          type, each of its campaigns run on the fleet;
//	                          a job's result is byte-identical to a
//	                          single-node run's
//	GET  /healthz             role, uptime, build info, live registry facts,
//	                          alert summary, per-worker scrape staleness
//	GET  /metrics             fleet-wide Prometheus text exposition: the
//	                          coordinator registry merged with every
//	                          worker's heartbeat-pushed snapshot
//	GET  /fleet/status        machine-readable fleet snapshot (workers,
//	                          slots, queue depth, engines, staleness)
//	GET  /alerts              SLO alert list + summary
//	GET  /debug/events        flight-recorder ring as JSON
//	GET  /debug/trace/{id}    one trace as NDJSON: a job's under its job ID,
//	                          coordinator and worker spans included
type CoordinatorServer struct {
	c   *Coordinator
	mux *http.ServeMux
}

// NewCoordinatorServer wires c's registry, federation and telemetry routes
// and the job routes of m, a manager built by c.NewManager (which shares
// c's telemetry bundle, so the telemetry routes cover its jobs too).
func NewCoordinatorServer(c *Coordinator, m *campaign.Manager) *CoordinatorServer {
	s := &CoordinatorServer{c: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/fleet/workers", s.register)
	s.mux.HandleFunc("GET /v1/fleet/workers", s.workers)
	jobs := campaign.NewServer(m)
	s.mux.Handle("/v1/campaigns", jobs)
	s.mux.Handle("/v1/campaigns/", jobs)
	s.mux.HandleFunc("GET /healthz", campaign.HealthzHandler("coordinator", time.Now(), c.HealthFacts))
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /fleet/status", s.status)
	s.mux.Handle("GET /alerts", c.Obs().SLO.AlertsHandler())
	s.mux.HandleFunc("GET /debug/events", c.Obs().EventsHandler())
	s.mux.HandleFunc("GET /debug/trace/{id}", c.Obs().TraceHandler())
	return s
}

func (s *CoordinatorServer) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.c.WriteFederatedMetrics(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *CoordinatorServer) status(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.c.FleetStatus())
}

// ServeHTTP implements http.Handler.
func (s *CoordinatorServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// RegisterRequest is a worker's registration/heartbeat body. Metrics, when
// non-empty, is the worker's rendered Prometheus exposition: the heartbeat
// doubles as the federation scrape so no reverse connection is needed.
type RegisterRequest struct {
	URL     string `json:"url"`
	Metrics string `json:"metrics,omitempty"`
}

func (s *CoordinatorServer) register(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	body := http.MaxBytesReader(w, r.Body, obs.MaxExpositionBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSONError(w, code, fmt.Errorf("decoding registration: %w", err))
		return
	}
	if req.URL == "" {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("fleet: registration without url"))
		return
	}
	s.c.Register(req.URL)
	if req.Metrics != "" {
		if err := s.c.IngestMetrics(req.URL, req.Metrics); err != nil {
			writeJSONError(w, http.StatusBadRequest, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.c.Workers())
}

func (s *CoordinatorServer) workers(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.c.Workers())
}
