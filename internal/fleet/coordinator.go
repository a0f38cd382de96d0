package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/maf"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/target"
)

// Dispatch constants. A campaign defaults to shardsPerWorker shards per
// live worker, so a mid-campaign worker loss only forfeits a fraction of
// that worker's assignment; a shard fails the campaign after maxAttempts
// attempts.
const (
	shardsPerWorker = 4
	maxAttempts     = 6
)

// CoordinatorConfig tunes a Coordinator. The zero value selects the
// defaults noted per field.
type CoordinatorConfig struct {
	// MaxInFlight bounds concurrently dispatched shards; zero selects
	// 2 × the number of live workers at dispatch time (at least 2).
	MaxInFlight int
	// ShardTimeout bounds one shard attempt; zero selects 5 minutes.
	ShardTimeout time.Duration
	// Backoff is the base retry delay, doubled per attempt; zero selects
	// 100ms.
	Backoff time.Duration
	// HeartbeatTTL expires workers that stop heartbeating; zero means
	// workers never expire (static registry, e.g. the CLI's -workers).
	HeartbeatTTL time.Duration
	// Client is the HTTP client for shard dispatch; nil selects a default
	// with no overall timeout (per-shard attempts are bounded by
	// ShardTimeout contexts).
	Client *http.Client
	// Obs is the telemetry bundle the coordinator registers its metrics in
	// and emits spans and events to; nil selects a fresh enabled bundle.
	// NewManager shares it with the job manager; co-registered names never
	// collide (fleet metrics are xtalkd_fleet_*-prefixed, except
	// xtalkd_fleet_shards_served_total which belongs to the manager).
	Obs *obs.Telemetry
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Minute
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

type workerState struct {
	url      string
	lastSeen time.Time
	dead     bool         // marked on transport failure; a heartbeat revives it
	expired  bool         // TTL expiry already recorded, so the event fires once
	shards   atomic.Int64 // shards completed by this worker
	failures atomic.Int64 // shard attempts failed on this worker

	// Federation state: the last parsed registry exposition this worker
	// pushed on its heartbeat, and when it arrived (staleness source).
	snapshot   *obs.Snapshot
	snapshotAt time.Time
}

// FleetStats describes one distributed campaign: its shards and its retries.
type FleetStats struct {
	Shards  int `json:"shards"`
	Retries int `json:"retries"`
	// TraceID identifies the trace holding this campaign's spans in the
	// coordinator's span collector (GET /debug/trace/{TraceID}), the worker
	// spans shipped back in shard responses included: the caller's trace
	// (a job ID) when its context carries one, else a fresh "f…" trace.
	// Empty when tracing is disabled.
	TraceID string `json:"trace_id,omitempty"`
}

// Coordinator owns the worker registry and drives distributed campaigns:
// it plans shards, dispatches them to live workers with bounded fan-out,
// retries failed or timed-out shards on surviving workers with exponential
// backoff, and merges partial results into the exact single-node campaign
// result.
type Coordinator struct {
	cfg CoordinatorConfig
	obs *obs.Telemetry

	mu      sync.Mutex
	workers map[string]*workerState
	rr      int // round-robin cursor

	ingestMu sync.Mutex // serializes IngestMetrics

	plans *campaign.PlanCache

	campaigns, campaignsFailed, shardsDispatched, shardRetries, defectsMerged *obs.Counter
	shardsInflight                                                            *obs.Gauge
	shardRoundtrip, shardDispatch                                             *obs.Histogram
}

// NewCoordinator builds a coordinator with an empty registry.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	t := cfg.Obs
	if t == nil {
		t = obs.NewTelemetry()
	}
	c := &Coordinator{cfg: cfg, obs: t, workers: make(map[string]*workerState),
		plans: campaign.NewPlanCache(t.Reg, "xtalkd_fleet_")}
	reg := t.Reg
	c.campaigns = reg.Counter("xtalkd_fleet_campaigns_total", "distributed campaigns run")
	c.campaignsFailed = reg.Counter("xtalkd_fleet_campaigns_failed_total", "distributed campaigns that failed")
	c.shardsDispatched = reg.Counter("xtalkd_fleet_shards_dispatched_total", "shard assignments completed by workers")
	c.shardRetries = reg.Counter("xtalkd_fleet_shard_retries_total", "shard attempts retried after a failure")
	c.defectsMerged = reg.Counter("xtalkd_fleet_defects_merged_total", "defect outcomes merged from shards")
	c.shardsInflight = reg.Gauge("xtalkd_fleet_shards_inflight", "shards currently dispatched and awaiting results")
	c.shardRoundtrip = reg.Histogram("xtalkd_fleet_shard_roundtrip_seconds",
		"one successful shard POST round-trip (excludes retries and backoff)", nil)
	c.shardDispatch = reg.Histogram("xtalkd_fleet_shard_dispatch_seconds",
		"one shard's full dispatch including retries and backoff", nil)
	reg.GaugeFunc("xtalkd_fleet_workers", "registered workers",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.workers))
		})
	reg.GaugeFunc("xtalkd_fleet_workers_alive", "registered workers currently alive",
		func() float64 { return float64(c.LiveWorkers()) })
	t.SLO.Add(obs.Objective{
		Name:        "shard_roundtrip",
		Description: "successful shard round-trips complete within ~4.2 s",
		Source:      obs.HistogramLatencySource(c.shardRoundtrip, 4.2),
		Budget:      0.05,
	})
	return c
}

// Obs returns the coordinator's telemetry bundle (never nil).
func (c *Coordinator) Obs() *obs.Telemetry { return c.obs }

// HealthFacts snapshots live registry facts for /healthz: registered and
// alive workers, in-flight shards, the alert summary, and per-worker scrape
// staleness (seconds since each worker last pushed its registry).
func (c *Coordinator) HealthFacts() map[string]any {
	now := time.Now()
	c.mu.Lock()
	total, alive := len(c.workers), 0
	staleness := make(map[string]float64, len(c.workers))
	for _, w := range c.workers {
		if c.aliveLocked(w) {
			alive++
		}
		if !w.snapshotAt.IsZero() {
			staleness[w.url] = now.Sub(w.snapshotAt).Seconds()
		}
	}
	c.mu.Unlock()
	facts := map[string]any{
		"workers":         total,
		"workers_alive":   alive,
		"shards_inflight": c.shardsInflight.Value(),
	}
	if len(staleness) > 0 {
		facts["scrape_staleness_seconds"] = staleness
	}
	if sum := c.obs.SLO.Summary(); sum != nil {
		facts["alerts"] = sum
	}
	return facts
}

// Register adds a worker or refreshes its heartbeat. A worker marked dead
// by a failed dispatch is revived — the heartbeat is the signal that it is
// reachable again.
func (c *Coordinator) Register(url string) {
	c.mu.Lock()
	w, ok := c.workers[url]
	event := ""
	if !ok {
		w = &workerState{url: url}
		c.workers[url] = w
		event = "worker.join"
	} else if w.dead || w.expired {
		event = "worker.revive"
	}
	w.lastSeen = time.Now()
	w.dead = false
	w.expired = false
	c.mu.Unlock()
	if event != "" {
		c.obs.Record(event, obs.Label{Key: "worker", Value: url})
	}
}

func (c *Coordinator) aliveLocked(w *workerState) bool {
	if w.dead {
		return false
	}
	if c.cfg.HeartbeatTTL > 0 && time.Since(w.lastSeen) > c.cfg.HeartbeatTTL {
		if !w.expired {
			// Flag before recording so the expiry event fires once per
			// outage, not once per liveness check.
			w.expired = true
			c.obs.Record("worker.expire", obs.Label{Key: "worker", Value: w.url})
		}
		return false
	}
	return true
}

// pick returns the next live worker round-robin, excluding avoid (the worker
// that just failed the shard, so an immediate retry lands elsewhere when the
// fleet has survivors).
func (c *Coordinator) pick(avoid string) (*workerState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := make([]*workerState, 0, len(c.workers))
	for _, w := range c.workers {
		if c.aliveLocked(w) && w.url != avoid {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		// Fall back to the avoided worker if it is the only live one.
		for _, w := range c.workers {
			if c.aliveLocked(w) {
				live = append(live, w)
			}
		}
	}
	if len(live) == 0 {
		return nil, false
	}
	sort.Slice(live, func(i, j int) bool { return live[i].url < live[j].url })
	c.rr++
	return live[c.rr%len(live)], true
}

func (c *Coordinator) markDead(w *workerState) {
	c.mu.Lock()
	w.dead = true
	c.mu.Unlock()
	c.obs.Record("worker.dead", obs.Label{Key: "worker", Value: w.url})
}

// LiveWorkers returns the number of currently live workers.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if c.aliveLocked(w) {
			n++
		}
	}
	return n
}

// RunCampaign executes the spec's campaign across the fleet: the library is
// partitioned into shards (shardCount <= 0 selects 4 × live workers),
// shards are dispatched with bounded fan-out and per-shard retries, and the
// merged result — byte-identical to a single-node run — is returned together
// with the bus width for report rendering. A spec that is invalid, or not a
// plain campaign, is refused before anything is dispatched: the fleet only
// simulates, and every job runs in a campaign.Manager whose Config.Fleet
// ships each of its campaigns here (see NewManager). When ctx carries a
// trace, the campaign's spans join it.
func (c *Coordinator) RunCampaign(ctx context.Context, spec campaign.Spec, shardCount int) (*sim.CampaignResult, int, FleetStats, error) {
	r, err := c.plans.Resolve(spec)
	if err == nil && r.Spec.JobType() != campaign.TypeCampaign {
		err = fmt.Errorf("fleet: runs plain campaigns only, not %q jobs", r.Spec.JobType())
	}
	if err != nil {
		return nil, 0, FleetStats{}, err
	}
	traceID := ""
	var span *obs.Span
	if c.obs.Enabled() {
		if traceID = obs.TraceID(ctx); traceID == "" {
			traceID = c.obs.Tracer.NewTraceID("f")
			ctx = obs.WithTracer(ctx, c.obs.Tracer, traceID)
		}
		ctx, span = obs.StartSpan(ctx, "fleet.campaign",
			obs.Label{Key: "bus", Value: spec.Bus})
	}
	res, width, stats, err := c.runCampaign(ctx, r, shardCount)
	stats.TraceID = traceID
	c.campaigns.Inc()
	if err != nil {
		c.campaignsFailed.Inc()
		span.SetAttr("error", err.Error())
	}
	span.SetAttr("shards", fmt.Sprint(stats.Shards))
	span.End()
	return res, width, stats, err
}

// NewManager builds a campaign.Manager that runs every campaign of its jobs
// on this fleet, cut into shardCount shards (0 selects 4 × live workers):
// the job runner of xtalkd -role coordinator and of the CLI's -workers. It
// shares the coordinator's telemetry bundle, so a job's trace holds the
// coordinator's and the workers' spans under its job ID. NewManager sets
// cfg.Obs and cfg.Fleet.
func (c *Coordinator) NewManager(cfg campaign.Config, shardCount int) *campaign.Manager {
	cfg.Obs = c.obs
	cfg.Fleet = func(ctx context.Context, spec campaign.Spec) (*sim.CampaignResult, error) {
		res, _, _, err := c.RunCampaign(ctx, spec, shardCount)
		return res, err
	}
	return campaign.New(cfg)
}

func (c *Coordinator) runCampaign(ctx context.Context, r *campaign.Resolved, shardCount int) (*sim.CampaignResult, int, FleetStats, error) {
	spec := r.Spec
	live := c.LiveWorkers()
	if live == 0 {
		return nil, 0, FleetStats{}, fmt.Errorf("fleet: no live workers registered")
	}
	if shardCount <= 0 {
		shardCount = shardsPerWorker * live
	}
	plan, err := PlanShards(resolvedShardKey(r, shardCount), spec.Size, shardCount)
	if err != nil {
		return nil, 0, FleetStats{}, err
	}
	faults, err := target.FaultUniverse(r.Target)
	if err != nil {
		return nil, 0, FleetStats{}, err
	}

	inflight := c.cfg.MaxInFlight
	if inflight <= 0 {
		inflight = 2 * live
	}
	sem := make(chan struct{}, inflight)
	results := make([]sim.OutcomeShard, len(plan.Shards))
	retries := make([]int, len(plan.Shards))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One unrecoverable shard fails the campaign and cancels the others. Its
	// error is kept, not theirs: a job whose fleet failed must end failed,
	// not canceled. The caller's own cancellation is kept the same way.
	var failed sync.Once
	var failure error
	fail := func(sh Shard, err error) {
		failed.Do(func() {
			failure = fmt.Errorf("fleet: shard %d [%d, %d): %w", sh.Index, sh.Start, sh.End, err)
		})
		cancel()
	}
	var wg sync.WaitGroup
	for i, sh := range plan.Shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				fail(sh, ctx.Err())
				return
			}
			defer func() { <-sem }()
			c.shardsInflight.Add(1)
			defer c.shardsInflight.Add(-1)
			resp, n, err := c.dispatchShard(ctx, spec, faults, plan, sh)
			if err != nil {
				fail(sh, err)
				return
			}
			results[i] = sim.OutcomeShard{Start: resp.Start, Outcomes: resp.Outcomes}
			retries[i] = n
		}(i, sh)
	}
	wg.Wait()
	if failure != nil {
		return nil, 0, FleetStats{}, failure
	}
	res, err := sim.MergeOutcomes(r.Bus, plan.Total, results)
	if err != nil {
		return nil, 0, FleetStats{}, err
	}
	res.BusName = spec.Bus
	fs := FleetStats{Shards: len(plan.Shards)}
	for _, n := range retries {
		fs.Retries += n
	}
	c.defectsMerged.Add(int64(plan.Total))
	return res, r.Width(), fs, nil
}

// dispatchShard runs one shard to completion: pick a live worker, post the
// assignment, and on failure (a misshapen response or a detection set
// outside faults included) mark the worker and retry elsewhere with
// exponential backoff, up to maxAttempts. It returns the response and the
// number of retries.
func (c *Coordinator) dispatchShard(ctx context.Context, spec campaign.Spec, faults *maf.FaultUniverse, plan *ShardPlan, sh Shard) (resp *ShardResponse, retries int, err error) {
	ctx, span := obs.StartSpan(ctx, "shard.dispatch",
		obs.Label{Key: "shard", Value: fmt.Sprint(sh.Index)},
		obs.Label{Key: "start", Value: fmt.Sprint(sh.Start)},
		obs.Label{Key: "end", Value: fmt.Sprint(sh.End)})
	if c.obs.Enabled() {
		t0 := time.Now()
		defer func() {
			c.shardDispatch.ObserveSince(t0)
			span.SetAttr("retries", fmt.Sprint(retries))
			span.End()
		}()
	}
	var lastErr error
	avoid := ""
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			retries++
			c.shardRetries.Inc()
			c.obs.Record("shard.retry",
				obs.Label{Key: "shard", Value: fmt.Sprint(sh.Index)},
				obs.Label{Key: "attempt", Value: fmt.Sprint(attempt)},
				obs.Label{Key: "error", Value: fmt.Sprint(lastErr)})
			backoff := c.cfg.Backoff << (attempt - 1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, retries, ctx.Err()
			}
		}
		w, ok := c.pick(avoid)
		if !ok {
			lastErr = fmt.Errorf("fleet: no live workers (last error: %v)", lastErr)
			continue
		}
		span.SetAttr("worker", w.url)
		resp, err := c.postShard(ctx, w, spec, faults, plan, sh)
		if err != nil {
			if ctx.Err() != nil {
				return nil, retries, ctx.Err()
			}
			w.failures.Add(1)
			c.markDead(w)
			avoid = w.url
			lastErr = fmt.Errorf("worker %s: %w", w.url, err)
			continue
		}
		w.shards.Add(1)
		c.shardsDispatched.Inc()
		return resp, retries, nil
	}
	return nil, retries, fmt.Errorf("fleet: shard %d failed after %d attempts: %w", sh.Index, maxAttempts, lastErr)
}

func (c *Coordinator) postShard(ctx context.Context, w *workerState, spec campaign.Spec, faults *maf.FaultUniverse, plan *ShardPlan, sh Shard) (*ShardResponse, error) {
	body, err := json.Marshal(ShardRequest{
		Spec:   spec,
		Key:    plan.Key,
		Shards: len(plan.Shards),
		Start:  sh.Start,
		End:    sh.End,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/fleet/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the trace so the worker's spans join this campaign's trace
	// (shipped back in the response and ingested below).
	obs.InjectHeader(ctx, req.Header)
	var t0 time.Time
	if c.obs.Enabled() {
		t0 = time.Now()
	}
	httpResp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return nil, fmt.Errorf("status %d: %s", httpResp.StatusCode, bytes.TrimSpace(msg))
	}
	resp, err := decodeShardResponse(httpResp.Body, sh, faults)
	if err != nil {
		return nil, err
	}
	if c.obs.Enabled() {
		c.shardRoundtrip.ObserveSince(t0)
		c.obs.Tracer.Ingest(resp.Spans)
	}
	return resp, nil
}

// decodeShardResponse reads a worker's reply to the assignment sh and binds
// each outcome's detection set to the campaign's fault universe. It refuses
// a reply that does not cover sh exactly or whose set holds a fault outside
// the universe.
func decodeShardResponse(r io.Reader, sh Shard, faults *maf.FaultUniverse) (*ShardResponse, error) {
	var resp ShardResponse
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		return nil, fmt.Errorf("decoding shard response: %w", err)
	}
	if resp.Start != sh.Start || len(resp.Outcomes) != sh.Len() {
		return nil, fmt.Errorf("shard response covers [%d, %d), want [%d, %d)",
			resp.Start, resp.Start+len(resp.Outcomes), sh.Start, sh.End)
	}
	for i := range resp.Outcomes {
		if err := resp.Outcomes[i].DetectedBy.Bind(faults); err != nil {
			return nil, fmt.Errorf("shard response outcome %d: %w", sh.Start+i, err)
		}
	}
	return &resp, nil
}
