// Command xtalkd is the campaign job daemon: an HTTP/JSON service that
// accepts defect-simulation campaign specs, schedules them on a bounded
// worker pool shared across jobs, and serves status, progress streams,
// results, metrics and cancellation. See internal/campaign for the API.
//
// Every job runs the exact batched engine (see internal/sim); a spec's
// optional "engine" field accepts only its spellings, "auto" and "batch".
// Progress events report how many defects the screening sweep resolved
// versus resumed execution for, a job's status reports the golden cycles of
// its plan ("golden_cycles") once the node holds its golden runner, and
// /metrics exposes the aggregate engine counters.
//
// Beyond plain campaigns, a spec's "type" field selects an analysis job
// (see internal/diagnose): "diagnose" builds the fault dictionary and
// localizes an optional failure "signature", "minimize" runs greedy
// set-cover test-set minimization with an empirical verification campaign,
// and "rank" measures the paper's Fig. 11, running each line's MA tests as
// their own program. Analysis jobs
// reuse the campaign caches and checkpoints; their progress events carry a
// "phase" (simulate, analyze, verify) and their result endpoint serves the
// deterministic analysis document instead of the campaign report.
//
// Type "infield" runs the campaign as an in-field test schedule (see
// internal/infield): the plan is partitioned into bounded-cycle slices
// ("slices" or "slice_cycles"), slices run in order paced by "interval_ms",
// and a checkpointed coverage ledger accumulates per-slice detections —
// canceled schedules resume at the next unmerged slice. Progress events
// carry the slice index and cumulative coverage, /metrics gains the
// xtalkd_infield_* families, and the result endpoint streams the
// coverage-over-time curve as NDJSON.
//
// The daemon plays one of three fleet roles (see internal/fleet):
//
//   - standalone (default): the single-node campaign API.
//   - worker: the campaign API plus the fleet shard endpoint
//     (POST /v1/fleet/shards); with -coordinator it registers itself and
//     heartbeats so the coordinator dispatches shards to it.
//   - coordinator: the fleet head node — worker registration
//     (POST /v1/fleet/workers; the registry is read from /fleet/status),
//     fleet metrics, and the same campaign API, whose jobs run every
//     campaign on the registered workers (results byte-identical to a
//     single-node run).
//
// Every role serves the unified telemetry endpoints (see internal/obs):
// GET /metrics (Prometheus text exposition from a single typed registry),
// GET /debug/events (the flight-recorder ring of structured events, also
// mirrored to stderr as structured logs), and GET /debug/trace/{id} (one
// job's trace as NDJSON, on the coordinator with its shard dispatches and
// the workers' spans). -debug-addr additionally serves net/http/pprof plus
// the same telemetry endpoints on a private listener.
//
// Usage:
//
//	xtalkd [-addr :8080] [-workers N] [-drain-timeout 30s]
//	       [-role standalone|worker|coordinator] [-debug-addr :6060]
//	       [-coordinator URL] [-advertise URL] [-heartbeat 5s]
//	       [-shard-timeout 5m] [-heartbeat-ttl 15s]
//	       [-slo-interval 10s]
//
// Each heartbeat additionally carries the worker's rendered metrics
// exposition, so the coordinator federates the fleet's registries into the
// xtalkd_fleet_* families on its own /metrics and serves the aggregate
// /fleet/status document without scraping workers itself. The SLO engine
// (see internal/obs) evaluates its burn-rate objectives every -slo-interval
// and serves the alert list at /alerts.
//
// On SIGINT/SIGTERM the daemon stops accepting work and drains in-flight
// jobs; jobs still running when the drain timeout expires are cancelled
// (their checkpoints allow a later resume).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "shared defect-run worker pool size (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight jobs on shutdown")
	role := flag.String("role", "standalone", "fleet role: standalone, worker, or coordinator")
	coordinator := flag.String("coordinator", "", "coordinator base URL to register with (worker role)")
	advertise := flag.String("advertise", "", "this worker's base URL as seen by the coordinator (worker role)")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "worker registration heartbeat period")
	shardTimeout := flag.Duration("shard-timeout", 5*time.Minute, "coordinator: per-shard attempt timeout")
	heartbeatTTL := flag.Duration("heartbeat-ttl", 15*time.Second, "coordinator: expire workers silent for this long")
	debugAddr := flag.String("debug-addr", "", "private listener for net/http/pprof and telemetry endpoints (empty = off)")
	sloInterval := flag.Duration("slo-interval", 10*time.Second, "SLO burn-rate evaluation period (0 = off)")
	flag.Parse()

	cfg := daemonConfig{
		addr:         *addr,
		workers:      *workers,
		drainTimeout: *drainTimeout,
		role:         *role,
		coordinator:  *coordinator,
		advertise:    *advertise,
		heartbeat:    *heartbeat,
		shardTimeout: *shardTimeout,
		heartbeatTTL: *heartbeatTTL,
		debugAddr:    *debugAddr,
		sloInterval:  *sloInterval,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "xtalkd:", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	addr         string
	workers      int
	drainTimeout time.Duration
	role         string
	coordinator  string
	advertise    string
	heartbeat    time.Duration
	shardTimeout time.Duration
	heartbeatTTL time.Duration
	debugAddr    string
	sloInterval  time.Duration
}

func run(cfg daemonConfig) error {
	started := time.Now()
	// One telemetry bundle per process: every role's registry, span
	// collector, and flight recorder, with events mirrored to stderr as
	// structured logs.
	tel := obs.NewTelemetryWithLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	var handler http.Handler
	var mgr *campaign.Manager

	switch cfg.role {
	case "standalone":
		mgr = campaign.New(campaign.Config{Workers: cfg.workers, Obs: tel})
		handler = campaign.NewServerWithInfo(mgr, campaign.ServerInfo{Role: cfg.role, Started: started})
	case "worker":
		mgr = campaign.New(campaign.Config{Workers: cfg.workers, Obs: tel})
		mux := http.NewServeMux()
		mux.Handle("/v1/fleet/", fleet.NewWorker(mgr))
		mux.Handle("/", campaign.NewServerWithInfo(mgr, campaign.ServerInfo{Role: cfg.role, Started: started}))
		handler = mux
	case "coordinator":
		coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
			ShardTimeout: cfg.shardTimeout,
			HeartbeatTTL: cfg.heartbeatTTL,
			Obs:          tel,
		})
		mgr = coord.NewManager(campaign.Config{Workers: cfg.workers}, 0)
		handler = fleet.NewCoordinatorServer(coord, mgr)
	default:
		return fmt.Errorf("unknown role %q (want standalone, worker, or coordinator)", cfg.role)
	}
	tel.Record("daemon.start",
		obs.Label{Key: "role", Value: cfg.role},
		obs.Label{Key: "addr", Value: cfg.addr})

	srv := &http.Server{Addr: cfg.addr, Handler: handler}
	var debugSrv *http.Server
	if cfg.debugAddr != "" {
		debugSrv = &http.Server{Addr: cfg.debugAddr, Handler: debugMux(tel)}
		go func() {
			if err := debugSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("xtalkd: debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.role == "worker" && cfg.coordinator != "" {
		if cfg.advertise == "" {
			return errors.New("worker with -coordinator needs -advertise (its own base URL)")
		}
		go heartbeatLoop(ctx, tel, cfg.coordinator, cfg.advertise, cfg.heartbeat)
	}
	if cfg.sloInterval > 0 {
		go sloLoop(ctx, tel, cfg.sloInterval)
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("xtalkd: %s listening on %s (%d workers)", cfg.role, cfg.addr, mgr.Workers())
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("xtalkd: signal received; draining (timeout %s)", cfg.drainTimeout)
	tel.Record("daemon.drain", obs.Label{Key: "role", Value: cfg.role})
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if debugSrv != nil {
		debugSrv.Shutdown(shutdownCtx)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("xtalkd: http shutdown: %v", err)
	}
	if err := mgr.Drain(shutdownCtx); err != nil {
		log.Printf("xtalkd: drain timed out; cancelling in-flight jobs")
		mgr.CancelAll()
		finalCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		if err := mgr.Drain(finalCtx); err != nil {
			return fmt.Errorf("jobs did not stop: %w", err)
		}
	}
	log.Printf("xtalkd: drained; bye")
	return nil
}

// debugMux builds the private debug listener: net/http/pprof plus the same
// telemetry endpoints the public API serves, so profiling and scraping work
// even when the public listener is saturated or firewalled.
func debugMux(tel *obs.Telemetry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", tel.MetricsHandler())
	mux.HandleFunc("GET /debug/events", tel.EventsHandler())
	mux.HandleFunc("GET /debug/trace/{id}", tel.TraceHandler())
	return mux
}

// heartbeatLoop registers the worker with the coordinator immediately and
// then keeps the registration fresh, so an expired or restarted coordinator
// re-learns the worker within one period.
func heartbeatLoop(ctx context.Context, tel *obs.Telemetry, coordinator, advertise string, period time.Duration) {
	heartbeat(ctx, tel, coordinator, advertise)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			heartbeat(ctx, tel, coordinator, advertise)
		}
	}
}

// heartbeat sends one registration. It carries the worker's rendered
// metrics exposition, which the coordinator federates into the fleet-wide
// xtalkd_fleet_* families — the heartbeat doubles as the scrape transport,
// so no extra listener or pull path is needed. A beat the coordinator
// refuses (a 400 for metrics that would not federate, a 413 for an
// oversized body) is recorded as a heartbeat.refused event with its status
// and error body, which the flight recorder also writes to the log.
func heartbeat(ctx context.Context, tel *obs.Telemetry, coordinator, advertise string) {
	var metrics bytes.Buffer
	if tel.Enabled() {
		tel.Reg.WritePrometheus(&metrics)
	}
	body, _ := json.Marshal(fleet.RegisterRequest{URL: advertise, Metrics: metrics.String()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		coordinator+"/v1/fleet/workers", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Printf("xtalkd: heartbeat to %s failed: %v", coordinator, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		tel.Record("heartbeat.refused",
			obs.Label{Key: "coordinator", Value: coordinator},
			obs.Label{Key: "status", Value: strconv.Itoa(resp.StatusCode)},
			obs.Label{Key: "error", Value: string(bytes.TrimSpace(msg))})
	}
}

// sloLoop drives the process's SLO burn-rate evaluator: each tick samples
// every objective's error-budget consumption over the fast and slow windows
// and advances the alert state machines served at /alerts.
func sloLoop(ctx context.Context, tel *obs.Telemetry, period time.Duration) {
	if tel == nil || tel.SLO == nil {
		return
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			tel.SLO.Tick(time.Now())
		}
	}
}
