package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/report"
)

// Server is the HTTP/JSON face of a Manager, served by cmd/xtalkd.
//
//	POST   /v1/campaigns             submit a Spec, returns its Status (413
//	                                 for a body over MaxRequestBytes)
//	GET    /v1/campaigns             list all jobs
//	GET    /v1/campaigns/{id}        status + progress
//	GET    /v1/campaigns/{id}/result full campaign result (done jobs only)
//	GET    /v1/campaigns/{id}/watch  NDJSON stream of progress events
//	POST   /v1/campaigns/{id}/resume restart a canceled/failed job
//	DELETE /v1/campaigns/{id}        cancel
//	GET    /healthz                  liveness (with alert summary)
//	GET    /metrics                  text metrics exposition
//	GET    /alerts                   SLO alert list + summary
type Server struct {
	m   *Manager
	mux *http.ServeMux
	// KeepAlive is the idle /watch stream's keep-alive period: when no
	// progress event arrives for this long, the latest progress snapshot is
	// re-sent (and flushed) so proxies do not drop the idle connection. Zero
	// selects 15s.
	KeepAlive time.Duration
}

// NewServer wires the routes for a standalone node.
func NewServer(m *Manager) *Server { return NewServerWithInfo(m, ServerInfo{}) }

// ServerInfo describes the serving node for /healthz.
type ServerInfo struct {
	// Role is the node's fleet role ("standalone", "worker", "coordinator");
	// empty selects "standalone".
	Role string
	// Started is the process start time for uptime reporting; zero selects
	// the server construction time.
	Started time.Time
}

// NewServerWithInfo wires the routes with an explicit node identity.
func NewServerWithInfo(m *Manager, info ServerInfo) *Server {
	if info.Role == "" {
		info.Role = "standalone"
	}
	if info.Started.IsZero() {
		info.Started = time.Now()
	}
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/campaigns", s.submit)
	s.mux.HandleFunc("GET /v1/campaigns", s.list)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.status)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/result", s.result)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/watch", s.watch)
	s.mux.HandleFunc("POST /v1/campaigns/{id}/resume", s.resume)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.cancel)
	s.mux.HandleFunc("GET /healthz", HealthzHandler(info.Role, info.Started, m.HealthFacts))
	s.mux.HandleFunc("GET /metrics", m.Obs().MetricsHandler())
	s.mux.Handle("GET /alerts", m.Obs().SLO.AlertsHandler())
	s.mux.HandleFunc("GET /debug/events", m.Obs().EventsHandler())
	s.mux.HandleFunc("GET /debug/trace/{id}", m.Obs().TraceHandler())
	return s
}

// Health is the /healthz document.
type Health struct {
	Status        string  `json:"status"`
	Role          string  `json:"role"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Version       string  `json:"version"`
	// Facts are live registry facts from the serving role: pool occupancy
	// and job states for a campaign node, worker liveness and in-flight
	// shards for a coordinator.
	Facts map[string]any `json:"facts,omitempty"`
}

// HealthzHandler serves a structured liveness document: status, node role,
// uptime since started, build info, and the role's live facts (facts may be
// nil). Shared by every xtalkd role.
func HealthzHandler(role string, started time.Time, facts func() map[string]any) http.HandlerFunc {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return func(w http.ResponseWriter, _ *http.Request) {
		h := Health{
			Status:        "ok",
			Role:          role,
			UptimeSeconds: time.Since(started).Seconds(),
			GoVersion:     runtime.Version(),
			Version:       version,
		}
		if facts != nil {
			h.Facts = facts()
		}
		writeJSON(w, http.StatusOK, h)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return job, true
}

// MaxRequestBytes caps the body of every JSON POST that carries a spec:
// job submissions (on every role) and fleet shard requests.
// The largest legitimate body measured, a widebus64 spec carrying its
// max_sessions-256 plan inline as core.WritePlan writes it, is about 229 KB.
// A body under the cap still gets a 400 when its spec asks for more than
// MaxLibrarySize defects or its inline plan for more than core.MaxPlanSteps
// steps or core.MaxPlanPrograms programs.
const MaxRequestBytes = 4 << 20

// MaxLibrarySize caps a spec's defect library size at 10× the paper's 1000.
// A widebus64 defect holds a 64×64 coupling matrix (about 33 KB), so a
// library at the cap takes about 330 MB.
const MaxLibrarySize = 10000

// DecodeRequest decodes r's JSON body into v, refusing unknown fields and
// bodies over MaxRequestBytes. On failure it returns the status to answer:
// 413 for an oversized body, 400 for anything else.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge, err
		}
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if code, err := DecodeRequest(w, r, &spec); err != nil {
		writeError(w, code, fmt.Errorf("decoding spec: %w", err))
		return
	}
	job, err := s.m.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/campaigns/"+job.ID())
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	jobs := s.m.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	res, width, ok := job.Result()
	if !ok {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; result available once done", job.ID(), job.Status().State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Non-campaign job types render their analysis product; the base
	// campaign result stays reachable through a plain campaign job with the
	// same spec (same caches, no extra simulation).
	if an, ok := job.Analysis(); ok {
		switch {
		case an.Infield != nil:
			// The coverage curve is a stream: header, points, summary.
			w.Header().Set("Content-Type", "application/x-ndjson")
			report.WriteInfieldNDJSON(w, an.Infield)
		case an.Diagnosis != nil:
			report.WriteDiagnosisJSON(w, an.Diagnosis)
		case an.Minimize != nil:
			report.WriteMinimizeJSON(w, an.Minimize)
		case an.Rank != nil:
			report.WriteRankJSON(w, an.Rank)
		}
		return
	}
	report.WriteCampaignJSON(w, res, width)
}

// watch streams progress events as NDJSON until the job reaches a terminal
// state or the client goes away. The final event carries the terminal state.
// When the stream is idle for the server's KeepAlive period (a long job
// whose in-flight defects have not completed, or a job queued behind the
// shared pool), the latest progress snapshot is re-sent and flushed so
// proxies and load balancers do not reap the idle connection.
func (s *Server) watch(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	events, cancel := job.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	keepAlive := s.KeepAlive
	if keepAlive <= 0 {
		keepAlive = 15 * time.Second
	}
	ticker := time.NewTicker(keepAlive)
	defer ticker.Stop()
	var last Progress
	send := func(p Progress) bool {
		last = p
		if err := enc.Encode(p); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		ticker.Reset(keepAlive)
		return true
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			// Keep-alive: repeat the latest snapshot. Consumers decode it as
			// a regular (unchanged, monotone) progress event.
			if !send(last) {
				return
			}
		case p := <-events:
			if !send(p) {
				return
			}
			if p.State.Terminal() {
				return
			}
		}
	}
}

func (s *Server) resume(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	job, err := s.m.Resume(job.ID())
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.m.Cancel(job.ID()); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}
