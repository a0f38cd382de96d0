// Package sim is the system-level defect-simulation environment of the
// paper's Fig. 9: it executes a generated self-test plan on the target
// system, first on the defect-free (nominal) channels to obtain the golden
// response signatures, then once per defect from a defect library, and
// decides detection by comparing the response cells unloaded from memory.
//
// Because every defect run executes the complete program through the
// crosstalk error model, fault masking is modelled exactly as in the paper:
// a defect is activated many times as the program executes, and all of its
// effects — including corrupted fetches that crash or hang the program,
// which a tester would observe as a timeout — contribute to the outcome.
//
// The runner is target-agnostic: it drives a target.Core (Parwan CPU-memory
// by default, or any other backend) and owns only the engine logic (see
// Engine): golden transaction traces captured at construction let a batched
// sweep settle every clean (defect, session) pair by channel arithmetic
// alone, with execution — resumed from the golden snapshot at the first
// diverging transaction, following the golden run between the transactions
// on which the defect fires, and shared by the defects whose session first
// diverges on the same transaction until their verdicts differ — only
// where the defect actually fires.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/maf"
	"repro/internal/target"
)

// BusSetup bundles one channel's nominal electrical description. It is the
// target layer's BusModel under this package's historical name.
type BusSetup = target.BusModel

// DefaultSetups returns the nominal setups for the paper's 12-bit address
// bus and 8-bit data bus using the default geometry and threshold factor.
func DefaultSetups() (addr, data BusSetup, err error) {
	models, err := target.Parwan().BusModels(0)
	if err != nil {
		return BusSetup{}, BusSetup{}, err
	}
	return models[core.AddrBus], models[core.DataBus], nil
}

// RunResult is one program execution's observable outcome.
type RunResult = target.RunResult

// Runner executes a self-test plan against nominal or defective channels of
// one target. It is safe for concurrent use: defect runs share only the
// immutable golden state, the target core (itself concurrency-safe), and
// atomic counters.
type Runner struct {
	tgt    target.Target
	models []target.BusModel
	core   target.Core
	plan   *core.Plan

	golden       []RunResult // per session program
	goldenCycles uint64
	// respIdx[s][a] indexes applied test a's response cells of session s
	// in RunResult.Responses, and faultIdx[s][a] is its fault's index in
	// the target's fault universe.
	respIdx  [][][]int
	faults   *maf.FaultUniverse
	faultIdx [][]int

	// trans[ch] is channel ch's golden traffic as a transition table, the
	// screen's input.
	trans []transTable

	fallbacks     atomic.Int64
	executes      atomic.Int64
	batchScreened atomic.Int64
	batchSweeps   atomic.Int64
	executedSteps atomic.Int64
}

// NewRunner builds a Parwan-backend runner from this package's historical
// signature: the address and data bus setups of the paper's system.
func NewRunner(plan *core.Plan, addr, data BusSetup) (*Runner, error) {
	return NewTargetRunner(target.Parwan(), plan, []BusSetup{core.DataBus: data, core.AddrBus: addr})
}

// NewTargetRunner builds a runner for any target backend and executes the
// golden (defect-free) reference runs, reducing each channel's transaction
// traces to the screen's transition table. models is indexed by channel ID,
// as returned by the target's BusModels. It fails if any golden run does not
// halt cleanly — a plan whose programs misbehave on a good chip is a
// generation bug, not a test result — or suffers crosstalk events on the
// nominal channels, which voids the screen's precondition (see Engine), or if
// a test names a response cell its session never unloads or a fault outside
// the target's fault universe, whose size a detection set bounds (see
// target.FaultUniverse). The thresholds a shipped target's BusModels derive
// leave its nominal channels error-free, so only hand-built thresholds meet
// the second refusal.
func NewTargetRunner(tgt target.Target, plan *core.Plan, models []target.BusModel) (*Runner, error) {
	u, err := target.FaultUniverse(tgt)
	if err != nil {
		return nil, err
	}
	c, err := tgt.NewCore(plan, models)
	if err != nil {
		return nil, err
	}
	r := &Runner{tgt: tgt, models: models, core: c, plan: plan, faults: u, trans: make([]transTable, len(models))}
	seen := make([]map[target.BusStep]int32, len(models))
	for ch := range seen {
		seen[ch] = make(map[target.BusStep]int32)
	}
	for s, prog := range plan.Programs {
		idx, err := prog.ResponseIndex()
		if err != nil {
			return nil, err
		}
		r.respIdx = append(r.respIdx, idx)
		faults := make([]int, len(prog.Applied))
		for a, t := range prog.Applied {
			i, ok := u.Index(t.MA.Fault)
			if !ok {
				return nil, fmt.Errorf("sim: session %d test %v@%d is outside %s's fault universe",
					prog.Session, t.MA.Fault, t.MA.Fault.Width, tgt.Name())
			}
			faults[a] = i
		}
		r.faultIdx = append(r.faultIdx, faults)
		res, steps, err := c.Golden(s)
		if err != nil {
			return nil, err
		}
		if !res.Halted || res.ExecErr != nil {
			return nil, fmt.Errorf("sim: golden run of session %d failed (halted=%v err=%v)",
				prog.Session, res.Halted, res.ExecErr)
		}
		if res.Events > 0 {
			return nil, fmt.Errorf("sim: golden run of session %d suffers %d crosstalk events on the nominal channels; screening needs event-free golden traffic",
				prog.Session, res.Events)
		}
		r.golden = append(r.golden, res)
		for ch := range r.trans {
			r.trans[ch].add(steps[ch], seen[ch])
		}
		r.goldenCycles += res.Cycles
	}
	return r, nil
}

// Plan returns the plan under simulation.
func (r *Runner) Plan() *core.Plan { return r.plan }

// Target returns the backend the runner simulates.
func (r *Runner) Target() target.Target { return r.tgt }

// GoldenCycles returns the total cycles of all golden session runs — the
// paper's "total execution time of the programs" (1720 cycles for its
// system).
func (r *Runner) GoldenCycles() uint64 { return r.goldenCycles }

// Golden returns the golden result of one session.
func (r *Runner) Golden(session int) RunResult { return r.golden[session] }

// Outcome is the verdict for one defect.
type Outcome struct {
	DefectID int
	Bus      core.BusID
	// Detected is true when any session's responses differ from golden or
	// any session run crashed or hung (a tester-visible failure).
	Detected bool
	// Crashed is true when some run ended in an illegal opcode or hit the
	// step limit (corrupted control flow).
	Crashed bool
	// DetectedBy is the set of faults whose tests' response cells
	// mismatched, attributing detection (shared compaction cells attribute
	// to every test of the group), over the target's fault universe. A set
	// walks its faults in the canonical maf.Compare order, so detection
	// sets — and everything derived from them: report JSON, diagnosis
	// dictionaries, set-cover minimization — are byte-stable across engines
	// and shard merges.
	DetectedBy maf.Set
	// Activations counts crosstalk error events across all session runs —
	// how many times the defect fired while the programs executed.
	Activations int
	// Replayed is true when the outcome was settled without any execution:
	// every session's trace passed the screening sweep cleanly. Diagnostic
	// only — it is deliberately excluded from campaign reports so engines
	// stay byte-identical — but it crosses the fleet's shard wire, so a job
	// run on a fleet attributes its defects exactly as a local run does.
	Replayed bool `json:"replayed,omitempty"`
}

// Merge folds into o the verdict src of the same defect over other sessions
// of the plan, composing them as judge composes session runs: Detected and
// Crashed by OR, Activations by sum, Replayed by AND (no part needed
// execution), and DetectedBy by set union, a word-wise OR. Starting from the
// identity verdict (the defect's DefectID and Bus, Replayed true, nothing
// else set), merging the outcomes of a partition of the plan's sessions, in
// any order, gives the whole plan's outcome: every plan of a target indexes
// the target's one fault universe.
func (o *Outcome) Merge(src Outcome) {
	o.Detected = o.Detected || src.Detected
	o.Crashed = o.Crashed || src.Crashed
	o.Activations += src.Activations
	o.Replayed = o.Replayed && src.Replayed
	o.DetectedBy = o.DetectedBy.Union(src.DetectedBy)
}

// RunDefect simulates one defective parameter set on the given channel (the
// other channels stay nominal) across every session program, with the
// default Batch engine.
func (r *Runner) RunDefect(bus core.BusID, defective *crosstalk.Params) (Outcome, error) {
	return r.RunDefectEngine(bus, defective, Batch)
}

// runDefectExecute is the Execute tier: the paper's Fig. 9 flow verbatim, a
// complete execution of every session program on freshly built systems.
func (r *Runner) runDefectExecute(bus core.BusID, defective *crosstalk.Params) (Outcome, error) {
	out := Outcome{Bus: bus}
	for i := range r.plan.Programs {
		res, err := r.core.Run(i, bus, defective)
		if err != nil {
			return Outcome{}, err
		}
		r.judge(&out, i, res)
	}
	return out, nil
}

// judge folds one session run into a defect outcome: activation counting,
// crash/hang detection, and response comparison against golden, by index,
// with per-test attribution as the test fault's bit in DetectedBy (a fault
// applied in several sessions is one bit). It is the single verdict path
// shared by the Execute tier and the Batch engine's resumed execution, which
// is what keeps the two engines byte-identical. It is kept out of line:
// inlined into a caller's loop over sessions, its compare loop over every
// response cell (4,096 in a widebus64 session) reloads its indexes from the
// stack.
//
//go:noinline
func (r *Runner) judge(out *Outcome, session int, res RunResult) {
	out.Activations += res.Events
	if !res.Halted || res.ExecErr != nil {
		out.Detected = true
		out.Crashed = true
	}
	golden, faults := r.golden[session].Responses, r.faultIdx[session]
	for a, idx := range r.respIdx[session] {
		for _, i := range idx {
			if res.Responses[i] != golden[i] {
				out.Detected = true
				out.DetectedBy.Add(r.faults, faults[a])
				break
			}
		}
	}
}

// CampaignResult aggregates a defect library's outcomes.
type CampaignResult struct {
	Bus core.BusID
	// BusName is the channel's target-level name; empty means the Parwan
	// default (the BusID's own spelling).
	BusName  string
	Total    int
	Detected int
	Crashed  int
	Outcomes []Outcome
	// Universe is the fault universe the outcomes' detection sets index,
	// and the two counts below are indexed like it; all three are nil when
	// no outcome names a fault.
	Universe *maf.FaultUniverse
	// PerFault counts, for each fault's MA test, the defects it detected —
	// the basis of per-test coverage.
	PerFault []int
	// UniqueByFault counts the defects detected by exactly one test,
	// quantifying the detection-set overlap the paper relies on when 7
	// address tests are missing yet coverage stays 100%.
	UniqueByFault []int
}

// Coverage returns the fraction of defects detected.
func (c *CampaignResult) Coverage() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Total)
}

// CampaignOpts tunes a campaign run. The zero value reproduces the classic
// Campaign behaviour: one worker per CPU, the Batch engine, no hooks, no
// external limiter.
type CampaignOpts struct {
	// Workers is the number of worker goroutines; zero selects GOMAXPROCS.
	Workers int
	// Engine selects the simulation strategy; the zero value is Batch
	// (screening sweep with resumed execution, byte-identical to Execute).
	Engine Engine
	// Slots, when non-nil, is a shared concurrency limiter: each resume
	// group (each defect run, under Execute), and each block of the screen
	// and of the library's batch build, holds one token while it runs (see
	// crosstalk.RunBlocks). A service
	// scheduling several campaigns passes the same buffered channel to all
	// of them so total in-flight work stays bounded machine-wide.
	Slots chan struct{}
	// OnOutcome, when non-nil, is called once per completed defect with its
	// library index and outcome, including outcomes supplied by Skip. Calls
	// are serialised (never concurrent) but arrive in completion order, not
	// index order.
	OnOutcome func(i int, out Outcome)
	// Skip, when non-nil, lets the caller supply an already-known outcome
	// for index i (e.g. from a checkpoint of an interrupted campaign); the
	// defect run is then skipped. Defect runs are deterministic, so reusing
	// a checkpointed outcome cannot change the aggregate result.
	Skip func(i int) (Outcome, bool)
	// Observe, when non-nil, receives each completed defect run's outcome
	// and wall-clock duration (skipped defects are not observed). A defect
	// the screen settles is observed with zero duration; a resumed defect
	// with its share of its groups' time, each group's wall time split
	// evenly among its members. It may be called concurrently from several
	// workers and must only read timing — it sees the outcome after the
	// verdict is final, so it cannot perturb results. The campaign service
	// uses it for per-engine-tier latency histograms.
	Observe func(out Outcome, d time.Duration)
}

// Campaign simulates every defect in the library on the given channel.
// Defect runs are independent, so they execute on a worker pool; the result
// is deterministic because outcomes are collected by defect index and
// aggregated in order.
func (r *Runner) Campaign(bus core.BusID, lib *defects.Library) (*CampaignResult, error) {
	return r.CampaignCtx(context.Background(), bus, lib, CampaignOpts{})
}

// CampaignCtx is Campaign with cancellation and scheduling hooks. Outcomes
// Skip supplies are recorded first and take no slot. The Batch engine then
// screens the remaining defects together, settles the clean ones at once,
// and resumes the divergent ones in groups, one group per
// crosstalk.RunBlocks block (see runBatched); the Execute engine runs one
// defect per block. Each block holds one Slots token while it runs. When
// ctx is cancelled, no further block starts, in-flight blocks finish, and
// the context error is returned; outcomes already reported through
// OnOutcome remain valid as a checkpoint for a later resumed run. When a
// run fails, no further block starts and the first error (in index order)
// is reported with the defect's library ID.
func (r *Runner) CampaignCtx(ctx context.Context, bus core.BusID, lib *defects.Library, opts CampaignOpts) (*CampaignResult, error) {
	// Every tier indexes r.models and the tables and core state keyed
	// alongside it, so the channel is checked before any engine work.
	if int(bus) < 0 || int(bus) >= len(r.models) {
		return nil, fmt.Errorf("sim: %s has no channel %d", r.tgt.Name(), bus)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outcomes := make([]Outcome, len(lib.Defects))
	var outcomeMu sync.Mutex
	record := func(i int, out Outcome) {
		outcomes[i] = out
		if opts.OnOutcome != nil {
			outcomeMu.Lock()
			opts.OnOutcome(i, out)
			outcomeMu.Unlock()
		}
	}
	todo := make([]int, 0, len(lib.Defects))
	for i := range lib.Defects {
		if opts.Skip != nil {
			if out, ok := opts.Skip(i); ok {
				record(i, out)
				continue
			}
		}
		todo = append(todo, i)
	}

	c := &campaignRun{bus: bus, lib: lib, workers: workers, opts: opts, record: record}
	var err error
	if len(todo) > 0 {
		// runCtx also stops the run after the first failed defect; its
		// error is ctx's (checked below) or that stop (reported from c).
		runCtx, stop := context.WithCancel(ctx)
		defer stop()
		c.stop = stop
		if opts.Engine == Execute {
			r.runExecute(runCtx, c, todo)
		} else {
			err = r.runBatched(runCtx, c, todo)
		}
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	if err != nil {
		return nil, err
	}
	if c.err != nil {
		return nil, fmt.Errorf("sim: defect %d: %w", lib.Defects[c.failed].ID, c.err)
	}
	res := Aggregate(bus, outcomes)
	res.BusName = r.plan.BusName(bus)
	return res, nil
}

// campaignRun is the state CampaignCtx's engines share: where a defect's
// outcome goes once it is complete, and the first failure.
type campaignRun struct {
	bus     core.BusID
	lib     *defects.Library
	workers int
	opts    CampaignOpts
	record  func(i int, out Outcome)
	stop    context.CancelFunc

	mu     sync.Mutex
	failed int // the lowest library index that failed
	err    error
}

// done completes defect i with out, which took d of wall time: it is
// observed, given the defect's ID and recorded.
func (c *campaignRun) done(i int, out Outcome, d time.Duration) {
	if c.opts.Observe != nil {
		c.opts.Observe(out, d)
	}
	out.DefectID = c.lib.Defects[i].ID
	c.record(i, out)
}

// fail notes that the run of defect i failed with err, keeping the failure
// of the lowest index, and stops the campaign.
func (c *campaignRun) fail(i int, err error) {
	c.mu.Lock()
	if c.err == nil || i < c.failed {
		c.failed, c.err = i, err
	}
	c.mu.Unlock()
	c.stop()
}

// runExecute is the Execute engine's dispatch: one defect per block, each a
// full execution of every session program.
func (r *Runner) runExecute(ctx context.Context, c *campaignRun, todo []int) {
	_ = crosstalk.RunBlocks(ctx, len(todo), 1, c.workers, c.opts.Slots, func(k, _ int) {
		i := todo[k]
		t0 := time.Now()
		r.executes.Add(1)
		out, err := r.runDefectExecute(c.bus, c.lib.Defects[i].Params)
		if err != nil {
			c.fail(i, err)
			return
		}
		c.done(i, out, time.Since(t0))
	})
}

// Aggregate builds a CampaignResult from per-defect outcomes ordered by
// library index. It is the single aggregation path shared by Campaign and
// by services that collect outcomes themselves (checkpoint resume), which
// keeps the two byte-identical for the same library. It counts by universe
// index; the detection sets must share one universe.
func Aggregate(bus core.BusID, outcomes []Outcome) *CampaignResult {
	res := &CampaignResult{Bus: bus, Total: len(outcomes), Outcomes: outcomes}
	var per, unique [maf.SetBits]int
	var seen maf.Set
	for _, out := range outcomes {
		if out.Detected {
			res.Detected++
		}
		if out.Crashed {
			res.Crashed++
		}
		set := out.DetectedBy
		seen = seen.Union(set)
		for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
			per[i]++
		}
		if set.Len() == 1 {
			unique[set.Next(0)]++
		}
	}
	if u := seen.Universe(); u != nil {
		res.Universe = u
		res.PerFault = append([]int(nil), per[:u.Len()]...)
		res.UniqueByFault = append([]int(nil), unique[:u.Len()]...)
	}
	return res
}

// WirePoint is one bar group of the paper's Fig. 11: the individual and
// cumulative defect coverage of the MA tests for one interconnect.
type WirePoint struct {
	Wire       int
	Individual float64 // coverage of this wire's tests alone
	Cumulative float64 // coverage of wires 0..Wire combined
}

// Fig11Campaign reproduces the paper's Fig. 11 measurement for either Parwan
// bus: for each interconnect, the MA tests for that wire alone are generated
// into their own program and run against every defect in the library; the
// individual bar is that program's coverage and the cumulative bar is the
// union of detections of wires 0..i. Isolating each wire's tests is what
// the paper's "individual defect coverage obtained by applying each of the
// MA tests" means — attribution within one combined program would be
// polluted by incidental activations of strong defects during other tests'
// traffic.
func Fig11Campaign(addr, data BusSetup, bus core.BusID, lib *defects.Library, compaction bool) ([]WirePoint, error) {
	return Fig11CampaignCtx(context.Background(), addr, data, bus, lib, compaction, CampaignOpts{})
}

// Fig11CampaignCtx is Fig11Campaign with cancellation and campaign options.
// Each wire's defect library runs through CampaignCtx, so the per-wire runs
// use the worker pool and the selected engine instead of a serial defect
// loop. Only Workers, Slots, and Engine are honoured; the per-defect hooks
// (OnOutcome, Skip) are index-scoped to a single campaign and are ignored.
func Fig11CampaignCtx(ctx context.Context, addr, data BusSetup, bus core.BusID, lib *defects.Library, compaction bool, opts CampaignOpts) ([]WirePoint, error) {
	width := addr.Nominal.Width
	if bus == core.DataBus {
		width = data.Nominal.Width
	}
	total := len(lib.Defects)
	if total == 0 {
		return nil, fmt.Errorf("sim: empty defect library")
	}
	opts.OnOutcome, opts.Skip = nil, nil
	detected := make([][]bool, width)
	for w := 0; w < width; w++ {
		w := w
		plan, err := core.Generate(core.GenConfig{
			SkipDataBus: bus == core.AddrBus,
			SkipAddrBus: bus == core.DataBus,
			Compaction:  compaction,
			Filter:      func(f maf.Fault) bool { return f.Victim == w },
		})
		if err != nil {
			return nil, err
		}
		detected[w] = make([]bool, total)
		if len(plan.Programs) == 0 {
			continue // no applicable test for this wire
		}
		r, err := NewRunner(plan, addr, data)
		if err != nil {
			return nil, err
		}
		res, err := r.CampaignCtx(ctx, bus, lib, opts)
		if err != nil {
			return nil, err
		}
		for i, out := range res.Outcomes {
			detected[w][i] = out.Detected
		}
	}
	points := make([]WirePoint, width)
	cum := make([]bool, total)
	cumCount := 0
	for w := 0; w < width; w++ {
		ind := 0
		for i := 0; i < total; i++ {
			if detected[w][i] {
				ind++
				if !cum[i] {
					cum[i] = true
					cumCount++
				}
			}
		}
		points[w] = WirePoint{
			Wire:       w,
			Individual: float64(ind) / float64(total),
			Cumulative: float64(cumCount) / float64(total),
		}
	}
	return points, nil
}

// Fig11Series computes the per-interconnect individual and cumulative
// coverage series from a single combined campaign, attributing each defect
// to the victim wires of the tests that detected it. This is a cheaper
// approximation of Fig11Campaign: attribution is inflated for wires whose
// tests happen to observe other wires' strong defects incidentally.
func Fig11Series(c *CampaignResult, width int) []WirePoint {
	if c.Total == 0 {
		return nil
	}
	// For each defect, the victim wires whose tests detected it, as a mask
	// (a channel has at most 64 wires).
	perDefectWires := make([]uint64, len(c.Outcomes))
	for i, out := range c.Outcomes {
		set := out.DetectedBy
		for j := set.Next(0); j >= 0; j = set.Next(j + 1) {
			perDefectWires[i] |= 1 << uint(set.Universe().Fault(j).Victim)
		}
	}
	points := make([]WirePoint, width)
	cumDetected := make([]bool, len(c.Outcomes))
	cum := 0
	for w := 0; w < width; w++ {
		ind := 0
		for i := range c.Outcomes {
			if perDefectWires[i]>>uint(w)&1 != 0 {
				ind++
				if !cumDetected[i] {
					cumDetected[i] = true
					cum++
				}
			}
		}
		points[w] = WirePoint{
			Wire:       w,
			Individual: float64(ind) / float64(c.Total),
			Cumulative: float64(cum) / float64(c.Total),
		}
	}
	return points
}
