package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/report"
)

// CoordinatorServer is the HTTP face of a Coordinator, served by
// xtalkd -role coordinator.
//
//	POST /v1/fleet/workers    register a worker / refresh its heartbeat;
//	                          400 for metrics that do not parse or would
//	                          not federate, 413 for a body over
//	                          obs.MaxExpositionBytes
//	GET  /v1/fleet/workers    registry snapshot
//	POST /v1/fleet/campaigns  run a distributed campaign synchronously;
//	                          the body is the campaign-result JSON
//	                          (byte-identical to a single-node run), with
//	                          fleet attribution in X-Fleet-* headers; 400
//	                          for a spec the fleet cannot run (invalid, or
//	                          not a plain campaign), 413 for a body over
//	                          campaign.MaxRequestBytes, 502 when workers
//	                          fail
//	GET  /healthz             role, uptime, build info, live registry facts,
//	                          alert summary, per-worker scrape staleness
//	GET  /metrics             fleet-wide Prometheus text exposition: the
//	                          coordinator registry merged with every
//	                          worker's heartbeat-pushed snapshot
//	GET  /fleet/status        machine-readable fleet snapshot (workers,
//	                          slots, queue depth, engines, staleness)
//	GET  /alerts              SLO alert list + summary
//	GET  /debug/events        flight-recorder ring as JSON
//	GET  /debug/trace/{id}    one campaign trace as NDJSON (see
//	                          FleetStats.TraceID / the X-Fleet-Trace header)
type CoordinatorServer struct {
	c   *Coordinator
	mux *http.ServeMux
}

// NewCoordinatorServer wires the routes.
func NewCoordinatorServer(c *Coordinator) *CoordinatorServer {
	s := &CoordinatorServer{c: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/fleet/workers", s.register)
	s.mux.HandleFunc("GET /v1/fleet/workers", s.workers)
	s.mux.HandleFunc("POST /v1/fleet/campaigns", s.campaign)
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

// CampaignRequest asks the coordinator for one distributed campaign run.
type CampaignRequest struct {
	Spec campaign.Spec `json:"spec"`
	// Shards overrides the shard count; zero selects 4 × live workers.
	Shards int `json:"shards,omitempty"`
}

func (s *CoordinatorServer) campaign(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if code, err := campaign.DecodeRequest(w, r, &req); err != nil {
		writeJSONError(w, code, fmt.Errorf("decoding campaign request: %w", err))
		return
	}
	res, width, fs, err := s.c.RunCampaign(r.Context(), req.Spec, req.Shards)
	if err != nil {
		code := http.StatusBadGateway
		var refused *specError
		if errors.As(err, &refused) {
			code = http.StatusBadRequest
		}
		writeJSONError(w, code, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Fleet-Shards", strconv.Itoa(fs.Shards))
	h.Set("X-Fleet-Retries", strconv.Itoa(fs.Retries))
	h.Set("X-Fleet-Replay-Hits", strconv.Itoa(fs.ReplayHits))
	h.Set("X-Fleet-Executed", strconv.Itoa(fs.Executed))
	if fs.TraceID != "" {
		h.Set("X-Fleet-Trace", fs.TraceID)
	}
	report.WriteCampaignJSON(w, res, width)
}
