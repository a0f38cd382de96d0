// Package campaign is the job service tier above internal/sim: it accepts
// defect-simulation campaign specs, schedules them on a bounded worker pool
// shared across jobs, caches self-test plans, golden runners and defect
// libraries so repeated submissions do not recompute them, checkpoints
// per-defect outcomes so an interrupted job resumes where it stopped, and
// publishes progress events to subscribers. cmd/xtalkd exposes it over HTTP;
// the CLI's -workers runs the same jobs with their campaigns on a fleet
// (Config.Fleet).
//
// Determinism is preserved end to end: a campaign run through the service
// produces exactly the result of a direct sim.Runner.Campaign call with the
// same spec, because per-defect runs are pure functions of (plan, bus
// parameters) and aggregation is shared (sim.Aggregate, index order).
package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/infield"
	"repro/internal/maf"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/target"
)

// Spec describes one campaign job: which bus to attack, how to obtain the
// self-test plan (an inline plan document or a generation config), and the
// defect library to simulate.
type Spec struct {
	// Target names the backend under test ("parwan", "widebus32", ...);
	// empty selects the default Parwan system. Left un-normalized so cache
	// and shard keys derived from older specs are unchanged.
	Target string `json:"target,omitempty"`
	// Bus is the channel under test, by the target's channel name ("addr" or
	// "data" for Parwan, "bus" for wide-bus targets).
	Bus string `json:"bus"`
	// Type selects the job's product: "campaign" (the plain coverage
	// campaign; the default), "diagnose" (detection-set dictionary with
	// localization), "minimize" (greedy set-cover test minimization with a
	// verification campaign), "rank" (the paper's Fig. 11: each line's MA
	// tests run as their own program), or "infield" (the sliced in-field
	// schedule with convergent coverage accounting; see internal/infield).
	// All types run the same base simulation; infield partitions it into
	// slices, the others differ in the analysis phase.
	Type string `json:"type,omitempty"`
	// Signature, for diagnose jobs, lists observed failing MA test names
	// (maf.ParseFault forms, e.g. "dr[3]/fwd") to localize against the
	// dictionary.
	Signature []string `json:"signature,omitempty"`
	// Plan, when present, is an inline plan document (core.WritePlan form)
	// to run instead of generating one.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Compaction, MaxSessions and TargetOnly configure plan generation when
	// Plan is absent. TargetOnly restricts generation to the target bus's
	// tests (a smaller, faster plan).
	Compaction  bool `json:"compaction,omitempty"`
	MaxSessions int  `json:"max_sessions,omitempty"`
	TargetOnly  bool `json:"target_only,omitempty"`
	// Size, Sigma and Seed configure defect-library generation; zero Size
	// and Sigma select the paper's defaults (1000 defects, sigma 0.50).
	Size  int     `json:"size,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	Seed  int64   `json:"seed"`
	// CthFactor overrides the detectability-threshold factor; it must exceed
	// 1, and zero selects the default (1.55).
	CthFactor float64 `json:"cth_factor,omitempty"`
	// Engine names the simulation engine. Every job runs sim.Batch, the
	// exact production engine, so the only accepted values are its
	// spellings: empty (normalized to "auto"), "auto" and "batch".
	Engine string `json:"engine,omitempty"`
	// SliceCycles, Slices and IntervalMS configure infield jobs only.
	// SliceCycles is the per-slice golden-cycle budget (zero slices at the
	// finest granularity, one session per slice); Slices instead requests a
	// target slice count (mutually exclusive with SliceCycles); IntervalMS
	// paces recurring slices. See infield.Config.
	SliceCycles uint64 `json:"slice_cycles,omitempty"`
	Slices      int    `json:"slices,omitempty"`
	IntervalMS  int    `json:"interval_ms,omitempty"`
}

// The job product types a Spec.Type can select.
const (
	TypeCampaign = "campaign"
	TypeDiagnose = "diagnose"
	TypeMinimize = "minimize"
	TypeRank     = "rank"
	TypeInfield  = "infield"
)

// UnknownTypeError is the typed rejection of a Spec.Type outside the known
// job types, so callers can distinguish a misspelled type from other
// validation failures instead of matching error text.
type UnknownTypeError struct{ Type string }

func (e *UnknownTypeError) Error() string {
	return fmt.Sprintf("campaign: unknown job type %q (want campaign, diagnose, minimize, rank or infield)", e.Type)
}

// JobType resolves the spec's product type; empty selects TypeCampaign. The
// Type field itself is left un-normalized so cache and shard keys derived
// from older specs are unchanged.
func (s Spec) JobType() string {
	if s.Type == "" {
		return TypeCampaign
	}
	return s.Type
}

// TargetName resolves the spec's backend name; empty selects "parwan". The
// Target field itself is left un-normalized for key stability.
func (s Spec) TargetName() string {
	if s.Target == "" {
		return "parwan"
	}
	return s.Target
}

// backend resolves the spec's target backend and the channel ID of its bus
// under test.
func (s Spec) backend() (target.Target, core.BusID, error) {
	tgt, err := target.Parse(s.Target)
	if err != nil {
		return nil, 0, fmt.Errorf("campaign: %w", err)
	}
	topo := tgt.Topology()
	id, ok := topo.Channel(s.Bus)
	if !ok {
		return nil, 0, fmt.Errorf("campaign: target %s has no bus %q (want one of %v)",
			tgt.Name(), s.Bus, topo.Names())
	}
	return tgt, id, nil
}

// Normalized returns the spec with generation defaults applied, so cache
// and shard keys do not distinguish "0" from "the default it selects".
func (s Spec) Normalized() Spec { return s.normalized() }

// Validate reports whether the spec is well-formed.
func (s Spec) Validate() error { return s.validate() }

// BusID resolves the spec's bus under test; it is meaningful only for a
// valid spec.
func (s Spec) BusID() core.BusID {
	_, id, _ := s.backend()
	return id
}

// normalized returns the spec with generation defaults applied, so cache
// keys do not distinguish "0" from "the default it selects".
func (s Spec) normalized() Spec {
	if s.Size == 0 {
		s.Size = defects.DefaultLibrarySize
	}
	if s.Sigma == 0 {
		s.Sigma = defects.DefaultSigma
	}
	if s.CthFactor == 0 {
		s.CthFactor = crosstalk.DefaultCthFactor
	}
	if s.Engine == "" {
		// "auto" is the historical default spelling of sim.Batch; keeping
		// it keeps status JSON, job labels and cache keys unchanged.
		s.Engine = "auto"
	}
	return s
}

func (s Spec) validate() error {
	if err := s.validateFields(); err != nil {
		return err
	}
	_, err := s.inlinePlan()
	return err
}

// validateFields is validate without parsing the inline plan.
func (s Spec) validateFields() error {
	if _, _, err := s.backend(); err != nil {
		return err
	}
	if s.Size < 0 || s.Size > MaxLibrarySize {
		return fmt.Errorf("campaign: library size %d outside [0, %d]", s.Size, MaxLibrarySize)
	}
	if !(s.Sigma >= 0 && s.Sigma < math.Inf(1)) {
		return fmt.Errorf("campaign: sigma %g is negative or not finite", s.Sigma)
	}
	if s.CthFactor != 0 && !(s.CthFactor > 1 && s.CthFactor < math.Inf(1)) {
		return fmt.Errorf("campaign: cth_factor %g must be finite and exceed 1 (0 selects the default %g)",
			s.CthFactor, crosstalk.DefaultCthFactor)
	}
	if s.MaxSessions < 0 {
		return fmt.Errorf("campaign: negative max_sessions %d", s.MaxSessions)
	}
	switch s.Engine {
	case "", "auto", "batch":
	case "execute", "replay":
		return fmt.Errorf("campaign: engine %q was removed (want auto or batch)", s.Engine)
	default:
		return fmt.Errorf("campaign: unknown engine %q (want auto or batch)", s.Engine)
	}
	switch s.JobType() {
	case TypeCampaign, TypeDiagnose, TypeMinimize, TypeRank, TypeInfield:
	default:
		return &UnknownTypeError{Type: s.Type}
	}
	if len(s.Signature) > 0 && s.JobType() != TypeDiagnose {
		return fmt.Errorf("campaign: signature is only meaningful for diagnose jobs, not %q", s.JobType())
	}
	for _, name := range s.Signature {
		if _, err := maf.ParseFault(name); err != nil {
			return fmt.Errorf("campaign: signature: %w", err)
		}
	}
	if s.Slices < 0 {
		return fmt.Errorf("campaign: negative slice count %d", s.Slices)
	}
	if s.IntervalMS < 0 {
		return fmt.Errorf("campaign: negative slice interval %dms", s.IntervalMS)
	}
	if s.JobType() == TypeInfield {
		if s.Slices > 0 && s.SliceCycles > 0 {
			return errors.New("campaign: slices and slice_cycles are mutually exclusive")
		}
	} else if s.SliceCycles != 0 || s.Slices != 0 || s.IntervalMS != 0 {
		return fmt.Errorf("campaign: slice_cycles, slices and interval_ms are only meaningful for infield jobs, not %q", s.JobType())
	}
	if typ := s.JobType(); (typ == TypeMinimize || typ == TypeRank) && len(s.Plan) > 0 {
		// The minimized program and the per-line programs are generated
		// from the generation config with a fault filter; an inline plan
		// has no config to generate from.
		return fmt.Errorf("campaign: %s jobs need a generation config, not an inline plan", typ)
	}
	return nil
}

// inlinePlan parses the spec's inline plan document and checks it against
// the spec's target (target.CheckPlan), so a plan for another target, or
// one whose test names a fault its bus does not have, is a bad spec; nil
// when it has none.
func (s Spec) inlinePlan() (*core.Plan, error) {
	if len(s.Plan) == 0 {
		return nil, nil
	}
	tgt, _, err := s.backend()
	if err != nil {
		return nil, err
	}
	p, err := core.ReadPlan(bytes.NewReader(s.Plan))
	if err == nil {
		err = target.CheckPlan(tgt, p)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: inline plan: %w", err)
	}
	return p, nil
}

// State is a job's lifecycle phase.
type State string

// Job states. Canceled and Failed jobs keep their checkpoint and may be
// resumed.
const (
	Pending  State = "pending"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether the state is final (until a resume).
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Progress is one progress event: counts over the defect library so far.
// ReplayHits counts defects the screening sweep resolved without CPU
// execution; Executed counts defects that needed execution, resumed from
// their first divergence.
type Progress struct {
	State State `json:"state"`
	// Type is the job's product type (Spec.JobType); Phase is the stage
	// within the job: "simulate" while the base campaign runs, "analyze"
	// while detection sets are processed, and "verify" while a minimize
	// job's verification campaign re-simulates the minimized program. The
	// defect counters below always describe the simulate phase.
	Type        string `json:"type,omitempty"`
	Phase       string `json:"phase,omitempty"`
	Done        int    `json:"done"`
	Total       int    `json:"total"`
	Detected    int    `json:"detected"`
	Activations int64  `json:"activations"`
	ReplayHits  int    `json:"replay_hits"`
	Executed    int    `json:"executed"`
	// Slice, Slices and Coverage describe infield jobs: slices merged into
	// the coverage ledger so far, the manifest's total slice count, and the
	// cumulative detected fraction of the defect library. For infield jobs
	// Done/Total count defect runs across all slices and Detected is the
	// ledger's cumulative detection count.
	Slice    int     `json:"slice,omitempty"`
	Slices   int     `json:"slices,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
}

// add counts one completed defect outcome into the simulate-phase totals.
func (p *Progress) add(out sim.Outcome) {
	p.Done++
	if out.Detected {
		p.Detected++
	}
	p.Activations += int64(out.Activations)
	if out.Replayed {
		p.ReplayHits++
	} else {
		p.Executed++
	}
}

// Job phases reported in Progress.Phase.
const (
	PhaseSimulate = "simulate"
	PhaseAnalyze  = "analyze"
	PhaseVerify   = "verify"
)

// Status is a point-in-time snapshot of a job, JSON-ready.
type Status struct {
	ID           string    `json:"id"`
	State        State     `json:"state"`
	Spec         Spec      `json:"spec"`
	Progress     Progress  `json:"progress"`
	Error        string    `json:"error,omitempty"`
	GoldenCached bool      `json:"golden_cached"`
	LibCached    bool      `json:"library_cached"`
	Submitted    time.Time `json:"submitted"`
	Started      time.Time `json:"started,omitempty"`
	Finished     time.Time `json:"finished,omitempty"`
	// GoldenCycles is the total cycles of the plan's golden session runs
	// (the paper's self-test execution time), set once the node has built
	// or fetched the job's golden runner; zero and omitted when it has none,
	// as for a campaign whose fleet workers simulate it.
	GoldenCycles uint64 `json:"golden_cycles,omitempty"`
}

// Job is one submitted campaign.
type Job struct {
	id   string
	spec Spec // normalized

	mu           sync.Mutex
	state        State
	progress     Progress
	outcomes     []sim.Outcome // checkpoint, by library index
	completed    []bool
	ledger       *infield.Ledger // infield jobs: the slice-merge checkpoint
	result       *sim.CampaignResult
	analysis     *Analysis
	err          error
	width        int // bus width, which Result returns
	goldenCached bool
	libCached    bool
	goldenCycles uint64
	submitted    time.Time
	started      time.Time
	finished     time.Time
	cancel       context.CancelFunc
	done         chan struct{}
	subs         map[int]chan Progress
	nextSub      int
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's normalized spec.
func (j *Job) Spec() Spec { return j.spec }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:           j.id,
		State:        j.state,
		Spec:         j.spec,
		Progress:     j.progress,
		GoldenCached: j.goldenCached,
		LibCached:    j.libCached,
		GoldenCycles: j.goldenCycles,
		Submitted:    j.submitted,
		Started:      j.started,
		Finished:     j.finished,
	}
	st.Progress.State = j.state
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Result returns the campaign result and the bus width once the job is
// done. report.WriteCampaignJSON ignores the width; it is returned for the
// callers that still pass it on.
func (j *Job) Result() (*sim.CampaignResult, int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done || j.result == nil {
		return nil, 0, false
	}
	return j.result, j.width, true
}

// Analysis is the product of a terminal diagnose, minimize, rank or infield
// job; exactly one field is set, matching the job type. Campaign jobs have
// none.
type Analysis struct {
	Diagnosis *report.DiagnosisJSON
	Minimize  *report.MinimizeJSON
	Rank      *report.RankJSON
	Infield   *report.InfieldJSON
}

// Analysis returns the job's analysis product once done; ok is false for
// plain campaign jobs and non-terminal states.
func (j *Job) Analysis() (*Analysis, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done || j.analysis == nil {
		return nil, false
	}
	return j.analysis, true
}

// setPhase moves the job to a new phase and publishes the transition.
func (j *Job) setPhase(phase string) {
	j.mu.Lock()
	j.progress.Phase = phase
	j.publishLocked()
	j.mu.Unlock()
}

// Err returns the job's failure, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done returns a channel closed when the job reaches a terminal state. A
// resume replaces the channel, so callers should re-fetch it per wait.
func (j *Job) Done() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// Subscribe registers a progress listener. The channel has latest-value
// semantics: a slow consumer sees the newest event, not a backlog. The
// returned cancel function unregisters (idempotent). A final event carrying
// the terminal state is always delivered.
func (j *Job) Subscribe() (<-chan Progress, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Progress, 1)
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	// Seed with the current snapshot so subscribers need not wait for the
	// next defect to learn where the job stands.
	p := j.progress
	p.State = j.state
	ch <- p
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		delete(j.subs, id)
	}
}

// publishLocked pushes the current progress to all subscribers; j.mu held.
func (j *Job) publishLocked() {
	p := j.progress
	p.State = j.state
	for _, ch := range j.subs {
		select {
		case ch <- p:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
	}
}

// Metrics is the snapshot of the counters the benchmark harness reads
// around its timed jobs: golden-runner and defect-library cache traffic and
// the engine aggregate. Every other counter is read from the registry
// (Obs().Reg), as /metrics, /fleet/status and the CLI do.
type Metrics struct {
	GoldenCacheHits    int64 `json:"golden_cache_hits"`
	GoldenCacheMisses  int64 `json:"golden_cache_misses"`
	LibraryCacheHits   int64 `json:"library_cache_hits"`
	LibraryCacheMisses int64 `json:"library_cache_misses"`
	// Engine is the aggregate of every cached runner's engine counters:
	// sweep clearances and resumed-execution fallbacks (see
	// sim.EngineStats).
	Engine sim.EngineStats `json:"engine"`
}

// Config tunes a Manager.
type Config struct {
	// Workers is the shared defect-run concurrency bound across all jobs;
	// zero selects GOMAXPROCS.
	Workers int
	// Obs is the telemetry bundle the manager registers its metrics in and
	// emits spans and events to; nil selects a fresh enabled bundle with a
	// discarded log stream. Pass obs.Disabled() for a metrics-only manager
	// (the telemetry-off benchmark baseline).
	Obs *obs.Telemetry
	// Fleet, when set, runs every campaign a job simulates (the base
	// campaign, each minimize verification round, each in-field slice) on a
	// fleet instead of the local worker pool: it receives a plain campaign
	// spec and returns the merged result (fleet.Coordinator.NewManager
	// closes it over RunCampaign). Nil runs locally. Analysis, in-field
	// scheduling and progress stay in the manager either way; on a
	// fleet the manager builds locally only what they read.
	Fleet func(ctx context.Context, spec Spec) (*sim.CampaignResult, error)
}

type libKey struct {
	target string
	bus    string
	size   int
	sigma  float64
	seed   int64
	cth    float64
}

// Manager owns the job table, the shared worker pool and the caches.
type Manager struct {
	slots chan struct{}
	obs   *obs.Telemetry

	mu      sync.Mutex
	closed  bool
	jobs    map[string]*Job
	order   []string
	seq     int
	runners map[string]*sim.Runner // keyed by plan hash + cth factor

	plans *PlanCache
	libs  *lru[libKey, *defects.Library]

	wg sync.WaitGroup // running jobs, for Drain

	// All counters live in the obs registry, the one atomic source that
	// /metrics, /fleet/status and the CLI read; Metrics() copies the few the
	// benchmark reads.
	jobsSubmitted, jobsCompleted, jobsFailed, jobsCanceled, jobsResumed *obs.Counter
	defectsSimulated, shardsServed                                      *obs.Counter
	goldenHits, goldenMisses, libHits, libMisses                        *obs.Counter
	infieldSlices                                                       *obs.Counter
	infieldDetections, infieldGap                                       *obs.Gauge
	simLatency                                                          map[string]*obs.Histogram // per engine tier
	queueWait                                                           *obs.Histogram
	infieldSliceLatency                                                 *obs.Histogram

	fleet func(ctx context.Context, spec Spec) (*sim.CampaignResult, error)
}

// New builds a manager with an idle shared pool.
func New(cfg Config) *Manager {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	t := cfg.Obs
	if t == nil {
		t = obs.NewTelemetry()
	}
	m := &Manager{
		slots:   make(chan struct{}, w),
		obs:     t,
		jobs:    make(map[string]*Job),
		runners: make(map[string]*sim.Runner),
		plans:   NewPlanCache(t.Reg, "xtalkd_"),
		fleet:   cfg.Fleet,
	}
	reg := t.Reg
	m.jobsSubmitted = reg.Counter("xtalkd_jobs_submitted_total", "campaign jobs accepted")
	m.jobsCompleted = reg.Counter("xtalkd_jobs_completed_total", "campaign jobs finished successfully")
	m.jobsFailed = reg.Counter("xtalkd_jobs_failed_total", "campaign jobs ended in error")
	m.jobsCanceled = reg.Counter("xtalkd_jobs_canceled_total", "campaign jobs canceled")
	m.jobsResumed = reg.Counter("xtalkd_jobs_resumed_total", "campaign jobs resumed from checkpoint")
	m.defectsSimulated = reg.Counter("xtalkd_defects_simulated_total", "defect runs completed (jobs and shards)")
	m.shardsServed = reg.Counter("xtalkd_fleet_shards_served_total", "fleet shard assignments executed as a worker")
	m.goldenHits = reg.Counter("xtalkd_golden_cache_hits_total", "golden runner cache hits")
	m.goldenMisses = reg.Counter("xtalkd_golden_cache_misses_total", "golden runner cache misses")
	m.libHits = reg.Counter("xtalkd_library_cache_hits_total", "defect library cache hits")
	m.libMisses = reg.Counter("xtalkd_library_cache_misses_total", "defect library cache misses")
	m.libs = newLRU[libKey, *defects.Library](libraryCacheSize, m.libHits, m.libMisses,
		reg.Counter("xtalkd_library_cache_evictions_total", "defect libraries evicted from the bounded library cache"))
	m.infieldSlices = reg.Counter("xtalkd_infield_slices_run_total", "in-field test slices executed and merged into a coverage ledger")
	m.infieldDetections = reg.Gauge("xtalkd_infield_cumulative_detections", "cumulative defects detected by the most recently merged in-field slice")
	m.infieldGap = reg.Gauge("xtalkd_infield_convergence_gap", "defects not yet detected by the in-field ledger (converges to the one-shot campaign's undetected count)")
	reg.GaugeFunc("xtalkd_workers", "shared defect-run worker pool size",
		func() float64 { return float64(cap(m.slots)) })
	reg.GaugeFunc("xtalkd_workers_busy", "defect runs currently holding a pool slot",
		func() float64 { return float64(len(m.slots)) })
	reg.GaugeFunc("xtalkd_jobs_pending", "jobs accepted and waiting to start (the queue depth)",
		func() float64 { return float64(m.jobsInState(Pending)) })
	reg.CounterFunc("xtalkd_engine_fallbacks_total", "defect runs whose screening sweep diverged and resumed execution",
		m.engineStat(func(s sim.EngineStats) int64 { return s.Fallbacks }))
	reg.CounterFunc("xtalkd_engine_batch_screened_total", "defects cleared by the batched library-wide screening sweep",
		m.engineStat(func(s sim.EngineStats) int64 { return s.BatchScreened }))
	reg.CounterFunc("xtalkd_engine_batch_sweeps_total", "session-trace sweeps performed by the batched screening pass",
		m.engineStat(func(s sim.EngineStats) int64 { return s.BatchSweeps }))
	reg.CounterFunc("xtalkd_engine_executed_steps_total", "instructions (script steps) resumed execution executed, after rejoining the golden run and skipping repeating hangs",
		m.engineStat(func(s sim.EngineStats) int64 { return s.ExecutedSteps }))
	m.simLatency = map[string]*obs.Histogram{
		"replay": reg.Histogram("xtalkd_sim_defect_seconds", "per-defect simulation latency by engine tier",
			nil, obs.Label{Key: "tier", Value: "replay"}),
		"fallback": reg.Histogram("xtalkd_sim_defect_seconds", "per-defect simulation latency by engine tier",
			nil, obs.Label{Key: "tier", Value: "fallback"}),
	}
	m.queueWait = reg.Histogram("xtalkd_job_queue_wait_seconds",
		"delay between job acceptance and its run starting", nil)
	m.infieldSliceLatency = reg.Histogram("xtalkd_infield_slice_seconds",
		"one in-field test slice's wall-clock latency (run + merge)", nil)
	// Default service objectives, evaluated by the SLO engine's tick loop
	// (cmd/xtalkd). Each latency threshold is a DurationBuckets bound, as
	// HistogramLatencySource requires.
	t.SLO.Add(obs.Objective{
		Name:        "infield_slice_latency",
		Description: "in-field test slices stay within ~262 ms (a slice is a small interruption of the functional workload, not a full campaign)",
		Source:      obs.HistogramLatencySource(m.infieldSliceLatency, 0.262144),
		Budget:      0.01,
	})
	t.SLO.Add(obs.Objective{
		Name:        "job_queue_wait",
		Description: "jobs start within ~1.05 s of acceptance",
		Source:      obs.HistogramLatencySource(m.queueWait, 1.048576),
		Budget:      0.05,
	})
	return m
}

// jobsInState counts jobs currently in the given state (scrape-time).
func (m *Manager) jobsInState(s State) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state == s {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// engineStats sums every cached runner's engine counters.
func (m *Manager) engineStats() sim.EngineStats {
	var t sim.EngineStats
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.runners {
		s := r.Stats()
		t.Fallbacks += s.Fallbacks
		t.BatchScreened += s.BatchScreened
		t.BatchSweeps += s.BatchSweeps
		t.ExecutedSteps += s.ExecutedSteps
	}
	return t
}

// engineStat reads one field of the scrape-time engineStats aggregate.
func (m *Manager) engineStat(get func(sim.EngineStats) int64) func() float64 {
	return func() float64 { return float64(get(m.engineStats())) }
}

// Workers returns the shared pool size.
func (m *Manager) Workers() int { return cap(m.slots) }

// Obs returns the manager's telemetry bundle (never nil).
func (m *Manager) Obs() *obs.Telemetry { return m.obs }

// HealthFacts snapshots live registry facts for /healthz: pool occupancy and
// the job table by state.
func (m *Manager) HealthFacts() map[string]any {
	m.mu.Lock()
	byState := make(map[string]int)
	for _, j := range m.jobs {
		j.mu.Lock()
		byState[string(j.state)]++
		j.mu.Unlock()
	}
	jobs := len(m.jobs)
	m.mu.Unlock()
	facts := map[string]any{
		"workers":       cap(m.slots),
		"busy_workers":  len(m.slots),
		"jobs":          jobs,
		"jobs_by_state": byState,
	}
	if sum := m.obs.SLO.Summary(); sum != nil {
		facts["alerts"] = sum
	}
	return facts
}

// Metrics snapshots the counters the benchmark reads.
func (m *Manager) Metrics() Metrics {
	return Metrics{
		GoldenCacheHits:    m.goldenHits.Value(),
		GoldenCacheMisses:  m.goldenMisses.Value(),
		LibraryCacheHits:   m.libHits.Value(),
		LibraryCacheMisses: m.libMisses.Value(),
		Engine:             m.engineStats(),
	}
}

// Submit validates the spec, registers a job and starts it asynchronously.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	spec = spec.normalized()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("campaign: manager is draining; not accepting jobs")
	}
	m.seq++
	job := &Job{
		id:        fmt.Sprintf("c%06d", m.seq),
		spec:      spec,
		state:     Pending,
		submitted: time.Now(),
		done:      make(chan struct{}),
		subs:      make(map[int]chan Progress),
	}
	ctx, cancel := context.WithCancel(context.Background())
	job.cancel = cancel
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.wg.Add(1)
	m.mu.Unlock()
	m.jobsSubmitted.Inc()
	m.obs.Record("job.submit",
		obs.Label{Key: "job", Value: job.id},
		obs.Label{Key: "bus", Value: spec.Bus})
	go m.run(ctx, job, time.Now())
	return job, nil
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel requests cancellation of a pending or running job. The job stops
// within one defect-run granularity and keeps its checkpoint.
func (m *Manager) Cancel(id string) error {
	job, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("campaign: no job %q", id)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state.Terminal() {
		return fmt.Errorf("campaign: job %s already %s", id, job.state)
	}
	job.cancel()
	return nil
}

// CancelAll cancels every non-terminal job (used on forced shutdown).
func (m *Manager) CancelAll() {
	for _, job := range m.Jobs() {
		job.mu.Lock()
		if !job.state.Terminal() {
			job.cancel()
		}
		job.mu.Unlock()
	}
}

// Resume restarts a canceled or failed job from its checkpoint: defects
// whose outcomes were already recorded are not re-simulated.
func (m *Manager) Resume(id string) (*Job, error) {
	job, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("campaign: no job %q", id)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("campaign: manager is draining; not accepting jobs")
	}
	job.mu.Lock()
	if job.state != Canceled && job.state != Failed {
		st := job.state
		job.mu.Unlock()
		m.mu.Unlock()
		return nil, fmt.Errorf("campaign: job %s is %s; only canceled or failed jobs resume", id, st)
	}
	ctx, cancel := context.WithCancel(context.Background())
	job.state = Pending
	job.err = nil
	job.finished = time.Time{}
	job.cancel = cancel
	job.done = make(chan struct{})
	job.mu.Unlock()
	m.wg.Add(1)
	m.mu.Unlock()
	m.jobsResumed.Inc()
	m.obs.Record("job.resume", obs.Label{Key: "job", Value: job.id})
	go m.run(ctx, job, time.Now())
	return job, nil
}

// Drain stops accepting new jobs and waits for running ones to finish, up
// to ctx's deadline.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runnerFor returns a cached golden runner for (target, plan hash, cth),
// building and caching one on miss. plan is r's plan or one derived from it
// (an in-field slice, a minimized program), and hash is its PlanHash.
// Runners are read-only after construction, so one instance safely serves
// concurrent jobs.
func (m *Manager) runnerFor(r *Resolved, plan *core.Plan, hash string) (*sim.Runner, bool, error) {
	key := fmt.Sprintf("%s|%s|cth=%g", r.Target.Name(), hash, r.Spec.CthFactor)
	m.mu.Lock()
	runner, ok := m.runners[key]
	m.mu.Unlock()
	if ok {
		m.goldenHits.Add(1)
		return runner, true, nil
	}
	m.goldenMisses.Add(1)
	runner, err := sim.NewTargetRunner(r.Target, plan, r.Models)
	if err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	if prev, ok := m.runners[key]; ok {
		runner = prev // lost a build race; keep the first
	} else {
		m.runners[key] = runner
	}
	m.mu.Unlock()
	return runner, false, nil
}

// libraryFor returns a cached defect library for the spec, generating and
// caching one on miss; a generation that ctx cancels caches nothing.
// Libraries are read-only during campaigns, so evicting one never disturbs
// a job still using it.
func (m *Manager) libraryFor(ctx context.Context, r *Resolved) (*defects.Library, bool, error) {
	s := r.Spec
	key := libKey{target: s.TargetName(), bus: s.Bus, size: s.Size,
		sigma: s.Sigma, seed: s.Seed, cth: r.Setup().Thresholds.Cth}
	return m.libs.get(key, func() (*defects.Library, error) { return r.Library(ctx) })
}

// Resolve is campaign.Resolve answered from the manager's plan cache: a
// generation config the manager has resolved before costs no plan
// generation.
func (m *Manager) Resolve(spec Spec) (*Resolved, error) { return m.plans.Resolve(spec) }

// run executes a job to a terminal state. enqueued is when the job entered
// the table (submission or resume), for the queue-wait histogram.
func (m *Manager) run(ctx context.Context, job *Job, enqueued time.Time) {
	defer m.wg.Done()
	if m.obs.Enabled() {
		m.queueWait.ObserveSince(enqueued)
		// The job ID is the trace ID, so GET /debug/trace/{jobID} finds the
		// trace by the identifier operators already hold.
		ctx = obs.WithTracer(ctx, m.obs.Tracer, job.id)
	}
	ctx, span := obs.StartSpan(ctx, "job.run",
		obs.Label{Key: "job", Value: job.id},
		obs.Label{Key: "bus", Value: job.spec.Bus})
	job.mu.Lock()
	job.state = Running
	job.started = time.Now()
	job.progress.Type = job.spec.JobType()
	job.progress.Phase = PhaseSimulate
	job.publishLocked()
	job.mu.Unlock()
	m.obs.Record("job.state", obs.Label{Key: "job", Value: job.id}, obs.Label{Key: "state", Value: string(Running)})

	var res *sim.CampaignResult
	var analysis *Analysis
	var err error
	if job.spec.JobType() == TypeInfield {
		res, analysis, err = m.executeInfield(ctx, job)
	} else {
		var env *jobEnv
		res, env, err = m.execute(ctx, job)
		if err == nil && job.spec.JobType() != TypeCampaign {
			analysis, err = m.analyze(ctx, job, res, env)
		}
	}

	terminal := Done
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		terminal, err = Canceled, context.Canceled
	default:
		terminal = Failed
	}
	// The event and the trace's root span are recorded before the job is
	// seen to end, so a client that waits for the end reads them whole.
	m.obs.Record("job.state", obs.Label{Key: "job", Value: job.id}, obs.Label{Key: "state", Value: string(terminal)})
	span.SetAttr("state", string(terminal))
	span.End()

	job.mu.Lock()
	job.state, job.err = terminal, err
	switch terminal {
	case Done:
		job.result = res
		job.analysis = analysis
		m.jobsCompleted.Inc()
	case Canceled:
		m.jobsCanceled.Inc()
	default:
		m.jobsFailed.Inc()
	}
	job.finished = time.Now()
	job.publishLocked()
	close(job.done)
	job.mu.Unlock()
}

// jobEnv is a prepared job: its resolved spec and the cached golden runner
// and defect library. The analysis phase of diagnose/minimize/rank jobs and
// every in-field slice reuse it instead of re-deriving. On a fleet either
// may be nil (see prepare).
type jobEnv struct {
	*Resolved
	runner *sim.Runner
	lib    *defects.Library
}

// prepare performs a job's cached setup steps: it resolves the spec, fetches
// the golden runner and defect library from the caches, and records the
// cache, width and golden-cycle facts on the job. On a fleet the workers simulate, so it
// builds only what the job itself reads: the golden runner for an infield
// manifest's per-session cycles, the library for diagnose accuracy and the
// rank report's over-threshold counts.
func (m *Manager) prepare(ctx context.Context, job *Job) (*jobEnv, error) {
	_, span := obs.StartSpan(ctx, "job.setup")
	defer span.End()
	r, planHit, err := resolve(job.spec, m.plans)
	if err != nil {
		return nil, err
	}
	span.SetAttr("plan_cached", fmt.Sprint(planHit))
	env := &jobEnv{Resolved: r}
	typ := r.Spec.JobType()
	var goldenHit, libHit bool
	if m.fleet == nil || typ == TypeInfield {
		if env.runner, goldenHit, err = m.runnerFor(r, r.Plan, r.Hash); err != nil {
			return nil, err
		}
		span.SetAttr("golden_cached", fmt.Sprint(goldenHit))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if m.fleet == nil || typ == TypeDiagnose || typ == TypeRank {
		if env.lib, libHit, err = m.libraryFor(ctx, r); err != nil {
			return nil, err
		}
		span.SetAttr("library_cached", fmt.Sprint(libHit))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	job.mu.Lock()
	job.goldenCached, job.libCached, job.width = goldenHit, libHit, r.Width()
	if env.runner != nil {
		job.goldenCycles = env.runner.GoldenCycles()
	}
	job.mu.Unlock()
	return env, nil
}

// campaignOpts builds the options every manager campaign runs with: the
// shared slot pool at its full width, the batch engine, per-tier latency
// observation when telemetry is on, and onOutcome (nil for none).
func (m *Manager) campaignOpts(onOutcome func(int, sim.Outcome)) sim.CampaignOpts {
	opts := sim.CampaignOpts{Workers: cap(m.slots), Slots: m.slots, OnOutcome: onOutcome}
	if m.obs.Enabled() {
		opts.Observe = m.observeTier
	}
	return opts
}

// simulate is the one place a job runs a campaign over its defect library:
// the base campaign (plan is env.Plan), a minimize verification round or an
// in-field slice. Locally it runs on the job's golden runner, or on the
// cached runner of a derived plan, with opts. On a fleet it ships a plain
// campaign spec (the job's generation config for its own plan, the plan
// inline otherwise) and passes each merged outcome to opts.OnOutcome, so
// progress and checkpoints count exactly as for a local run.
func (m *Manager) simulate(ctx context.Context, env *jobEnv, plan *core.Plan, opts sim.CampaignOpts) (*sim.CampaignResult, error) {
	if m.fleet != nil {
		spec := env.Spec
		spec.Type, spec.Signature = "", nil
		spec.SliceCycles, spec.Slices, spec.IntervalMS = 0, 0, 0
		if plan != env.Plan {
			var buf bytes.Buffer
			if err := core.WritePlan(&buf, plan); err != nil {
				return nil, err
			}
			spec.Plan, spec.MaxSessions = buf.Bytes(), 0
		}
		res, err := m.fleet(ctx, spec)
		if err != nil {
			return nil, err
		}
		if opts.OnOutcome != nil {
			for i, out := range res.Outcomes {
				opts.OnOutcome(i, out)
			}
		}
		return res, nil
	}
	runner := env.runner
	if plan != env.Plan {
		// A derived plan has its own content hash, so recurring runs of it
		// (a recurring in-field schedule) hit the runner cache.
		hash, err := PlanHash(plan)
		if err != nil {
			return nil, err
		}
		if runner, _, err = m.runnerFor(env.Resolved, plan, hash); err != nil {
			return nil, err
		}
	}
	return runner.CampaignCtx(ctx, env.Bus, env.lib, opts)
}

// execute runs the base campaign of a campaign, diagnose, minimize or rank
// job over its checkpoint.
func (m *Manager) execute(ctx context.Context, job *Job) (*sim.CampaignResult, *jobEnv, error) {
	env, err := m.prepare(ctx, job)
	if err != nil {
		return nil, nil, err
	}
	// The library holds exactly Spec.Size defects (defects.Generate's
	// contract), so a fleet job sizes its checkpoint without building it.
	spec, size := env.Spec, env.Spec.Size
	job.mu.Lock()
	if len(job.outcomes) != size {
		// First run (or a resume whose library size changed, which cannot
		// happen for an unchanged spec): fresh checkpoint.
		job.outcomes = make([]sim.Outcome, size)
		job.completed = make([]bool, size)
	}
	// Rebuild progress from the checkpoint so a resumed job reports
	// monotone counts continuing where it stopped.
	p := Progress{Total: size, Type: spec.JobType(), Phase: PhaseSimulate}
	for i, done := range job.completed {
		if done {
			p.add(job.outcomes[i])
		}
	}
	job.progress = p
	job.publishLocked()
	job.mu.Unlock()

	opts := m.campaignOpts(func(i int, out sim.Outcome) {
		job.mu.Lock()
		defer job.mu.Unlock()
		if job.completed[i] {
			return // checkpoint replay; already counted
		}
		job.completed[i] = true
		job.outcomes[i] = out
		job.progress.add(out)
		m.defectsSimulated.Inc()
		job.publishLocked()
	})
	opts.Skip = func(i int) (sim.Outcome, bool) {
		job.mu.Lock()
		defer job.mu.Unlock()
		if job.completed[i] {
			return job.outcomes[i], true
		}
		return sim.Outcome{}, false
	}
	if observe := opts.Observe; observe != nil {
		var fellBack atomic.Bool
		opts.Observe = func(out sim.Outcome, d time.Duration) {
			observe(out, d)
			// One event per job, not per defect: the fact that the screening
			// tier gave up is interesting; its thousandth repetition is not.
			if !out.Replayed && fellBack.CompareAndSwap(false, true) {
				m.obs.Record("engine.fallback", obs.Label{Key: "job", Value: job.id})
			}
		}
	}
	cctx, campSpan := obs.StartSpan(ctx, "job.campaign",
		obs.Label{Key: "defects", Value: fmt.Sprint(size)})
	res, err := m.simulate(cctx, env, env.Plan, opts)
	campSpan.End()
	if err != nil {
		return nil, nil, err
	}
	return res, env, nil
}

// observeTier records a completed defect run in its engine tier's latency
// histogram: replay (settled by the screening sweep, no CPU execution) or
// fallback (executed: a screening divergence resolved by resumed
// execution).
func (m *Manager) observeTier(out sim.Outcome, d time.Duration) {
	tier := "fallback"
	if out.Replayed {
		tier = "replay"
	}
	m.simLatency[tier].Observe(d.Seconds())
}
