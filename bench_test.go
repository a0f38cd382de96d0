// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5), plus ablations of the design choices called out in
// DESIGN.md. Each benchmark logs the rows/series the paper reports; the
// cmd/xtalk tool runs the same experiments at full scale (1000 defects per
// bus, the paper's library size) — benchmarks use reduced libraries so the
// whole suite stays fast.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bist"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/diagnose"
	"repro/internal/fleet"
	"repro/internal/infield"
	"repro/internal/maf"
	"repro/internal/obs"
	"repro/internal/parwan"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/target"
	"repro/internal/tester"
	"repro/internal/workload"
)

const benchLibrarySize = 200 // reduced from the paper's 1000 for bench speed

func mustSetups(b *testing.B) (sim.BusSetup, sim.BusSetup) {
	b.Helper()
	addr, data, err := sim.DefaultSetups()
	if err != nil {
		b.Fatal(err)
	}
	return addr, data
}

func mustPlan(b *testing.B, cfg core.GenConfig) *core.Plan {
	b.Helper()
	plan, err := core.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

func mustRunner(b *testing.B, plan *core.Plan) *sim.Runner {
	b.Helper()
	addr, data := mustSetups(b)
	r, err := sim.NewRunner(plan, addr, data)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func mustLibrary(b *testing.B, setup sim.BusSetup, size int, seed int64) *defects.Library {
	b.Helper()
	lib, err := defects.Generate(setup.Nominal, setup.Thresholds, defects.Config{Size: size, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return lib
}

// BenchmarkE1_MATestGeneration regenerates the MAF universe of Fig. 1 /
// §5's fault counts: 64 MAFs on the 8-bit bidirectional data bus, 48 on the
// 12-bit address bus.
func BenchmarkE1_MATestGeneration(b *testing.B) {
	var nData, nAddr int
	for i := 0; i < b.N; i++ {
		nData = len(maf.Tests(parwan.DataBits, true))
		nAddr = len(maf.Tests(parwan.AddrBits, false))
	}
	b.ReportMetric(float64(nData), "data-MAFs")
	b.ReportMetric(float64(nAddr), "addr-MAFs")
	b.Logf("E1: data bus %d MAFs (paper: 64), address bus %d MAFs (paper: 48)", nData, nAddr)
}

// BenchmarkE2_TestProgramGeneration regenerates the applicability result of
// §5: the paper applies 64/64 data-bus tests and 41/48 address-bus tests in
// one program, recovering the rest in further sessions.
func BenchmarkE2_TestProgramGeneration(b *testing.B) {
	var plan *core.Plan
	for i := 0; i < b.N; i++ {
		plan = mustPlan(b, core.GenConfig{})
	}
	dTotal, dFirst := plan.AppliedOn(core.DataBus)
	aTotal, aFirst := plan.AppliedOn(core.AddrBus)
	tbl := report.NewTable("E2: test applicability", "bus", "first session", "all sessions", "paper (1 program)")
	tbl.AddRow("data (64 MAFs)", dFirst, dTotal, "64/64")
	tbl.AddRow("addr (48 MAFs)", aFirst, aTotal, "41/48")
	b.Logf("\n%s\nsessions: %d, inapplicable: %d, program size: %d bytes",
		tbl, len(plan.Programs), len(plan.Inapplicable), plan.Programs[0].Image.UsedCount())
}

// BenchmarkE3_ProgramExecution regenerates the execution-time result of §5:
// the paper's complete program runs in 1720 processor cycles.
func BenchmarkE3_ProgramExecution(b *testing.B) {
	plan := mustPlan(b, core.GenConfig{})
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r := mustRunner(b, plan)
		cycles = r.GoldenCycles()
	}
	b.ReportMetric(float64(cycles), "cpu-cycles")
	b.Logf("E3: total self-test execution time %d CPU cycles across %d sessions (paper: 1720)",
		cycles, len(plan.Programs))
}

// BenchmarkE3_ScalingWithBusWidth regenerates §5's scaling claim: a constant
// number of instructions per MAF, so program size and run time grow linearly
// with the number of tested interconnects.
func BenchmarkE3_ScalingWithBusWidth(b *testing.B) {
	type point struct {
		wires, tests, bytes int
		cycles              uint64
	}
	var pts []point
	for i := 0; i < b.N; i++ {
		pts = pts[:0]
		for _, n := range []int{2, 4, 6, 8} {
			n := n
			plan := mustPlan(b, core.GenConfig{
				SkipAddrBus: true,
				Filter:      func(f maf.Fault) bool { return f.Victim < n },
			})
			r := mustRunner(b, plan)
			applied, _ := plan.AppliedOn(core.DataBus)
			pts = append(pts, point{n, applied, plan.Programs[0].Image.UsedCount(), r.GoldenCycles()})
		}
	}
	tbl := report.NewTable("E3b: program size vs tested wires (data bus)",
		"wires", "tests", "bytes", "cycles", "bytes/test")
	for _, p := range pts {
		tbl.AddRow(p.wires, p.tests, p.bytes, p.cycles, float64(p.bytes)/float64(p.tests))
	}
	b.Logf("\n%s", tbl)
}

// BenchmarkE4_Fig11AddressBusCoverage regenerates Fig. 11 with a rank job:
// individual and cumulative defect coverage of the MA tests per
// address-bus interconnect, each line's tests run as their own program.
// Expected shape (paper): centre wires dominate, side wires (lines 1, 2,
// 11, 12 in the paper's library) have zero coverage, cumulative reaches
// 100%.
func BenchmarkE4_Fig11AddressBusCoverage(b *testing.B) {
	m := campaign.New(campaign.Config{})
	spec := campaign.Spec{Bus: "addr", Type: campaign.TypeRank, Size: benchLibrarySize, Seed: 2001}
	var r *report.RankJSON
	for i := 0; i < b.N; i++ {
		job, err := m.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
		an, ok := job.Analysis()
		if !ok {
			b.Fatalf("rank job ended %s: %v", job.Status().State, job.Err())
		}
		r = an.Rank
	}
	chart := report.NewBarChart(fmt.Sprintf("Fig 11: per-interconnect defect coverage (%d defects)", r.Defects))
	chart.MaxWidth = 40
	for _, w := range r.Wires {
		chart.Add(fmt.Sprintf("line %2d", w.Wire+1), w.Individual, w.Cumulative)
	}
	b.Logf("\n%s", chart)
	b.ReportMetric(r.Wires[len(r.Wires)-1].Cumulative*100, "cum-coverage-%")
}

// BenchmarkE5_TotalDefectCoverage regenerates §5's coverage result: 100%
// defect coverage on both busses despite the missing address tests, thanks
// to the overlap between MA-test detection sets.
func BenchmarkE5_TotalDefectCoverage(b *testing.B) {
	plan := mustPlan(b, core.GenConfig{})
	r := mustRunner(b, plan)
	addr, data := mustSetups(b)
	addrLib := mustLibrary(b, addr, benchLibrarySize, 3001)
	dataLib := mustLibrary(b, data, benchLibrarySize, 3002)
	var aRes, dRes *sim.CampaignResult
	var err error
	for i := 0; i < b.N; i++ {
		aRes, err = r.Campaign(core.AddrBus, addrLib)
		if err != nil {
			b.Fatal(err)
		}
		dRes, err = r.Campaign(core.DataBus, dataLib)
		if err != nil {
			b.Fatal(err)
		}
	}
	tbl := report.NewTable("E5: total defect coverage", "bus", "defects", "detected", "coverage", "paper")
	tbl.AddRow("addr", aRes.Total, aRes.Detected, aRes.Coverage(), "100%")
	tbl.AddRow("data", dRes.Total, dRes.Detected, dRes.Coverage(), "100%")
	b.Logf("\n%s", tbl)
	b.ReportMetric(aRes.Coverage()*100, "addr-coverage-%")
	b.ReportMetric(dRes.Coverage()*100, "data-coverage-%")
}

// benchE5Engine runs the E5 campaign (both busses) under one engine; past
// figures are recorded in bench/history.json.
func benchE5Engine(b *testing.B, eng sim.Engine) {
	plan := mustPlan(b, core.GenConfig{})
	r := mustRunner(b, plan)
	addr, data := mustSetups(b)
	addrLib := mustLibrary(b, addr, benchLibrarySize, 3001)
	dataLib := mustLibrary(b, data, benchLibrarySize, 3002)
	opts := sim.CampaignOpts{Engine: eng}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.CampaignCtx(context.Background(), core.AddrBus, addrLib, opts); err != nil {
			b.Fatal(err)
		}
		if _, err := r.CampaignCtx(context.Background(), core.DataBus, dataLib, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := r.Stats()
	b.ReportMetric(float64(st.BatchScreened)/float64(b.N), "batch-screened/op")
	b.ReportMetric(float64(st.Fallbacks)/float64(b.N), "fallbacks/op")
}

// BenchmarkE5_EngineExecute measures the E5 campaign under the execute-only
// reference engine (the pre-refactor behaviour: full CPU execution per
// defect on freshly allocated systems).
func BenchmarkE5_EngineExecute(b *testing.B) { benchE5Engine(b, sim.Execute) }

// BenchmarkE5_EngineBatch measures the E5 campaign under the production
// engine (one survivor-mask sweep per session trace, resumed execution only
// for divergent (defect, session) pairs) — byte-identical results to
// Execute.
func BenchmarkE5_EngineBatch(b *testing.B) { benchE5Engine(b, sim.Batch) }

// benchWideBusEngine runs a wide-bus campaign under one engine — the second
// target axis of the engine benchmarks, at a width (64 wires) where the
// batch kernel's structure-of-arrays walk has the most wires per step.
func benchWideBusEngine(b *testing.B, eng sim.Engine) {
	tgt := target.MustWideBus(64)
	plan, err := tgt.Generate(target.GenSpec{})
	if err != nil {
		b.Fatal(err)
	}
	models, err := tgt.BusModels(0)
	if err != nil {
		b.Fatal(err)
	}
	r, err := sim.NewTargetRunner(tgt, plan, models)
	if err != nil {
		b.Fatal(err)
	}
	lib, err := defects.Generate(models[0].Nominal, models[0].Thresholds,
		defects.Config{Size: benchLibrarySize, Seed: 4064})
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.CampaignOpts{Engine: eng}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.CampaignCtx(context.Background(), core.BusID(0), lib, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := r.Stats()
	b.ReportMetric(float64(st.BatchScreened)/float64(b.N), "batch-screened/op")
	b.ReportMetric(float64(st.Fallbacks)/float64(b.N), "fallbacks/op")
}

// BenchmarkWideBus64_EngineBatch measures the production engine on the
// 64-wire scripted bus.
func BenchmarkWideBus64_EngineBatch(b *testing.B) { benchWideBusEngine(b, sim.Batch) }

// BenchmarkE5_Fleet4Workers measures the same E5 campaign dispatched by a
// fleet coordinator across 4 in-process worker nodes (HTTP shard transfer
// included) — the comparison against BenchmarkE5_EngineBatch.
// On one machine the fleet shares the standalone run's cores, so this
// records distribution overhead, not speedup; the subsystem's scaling axis
// is many machines.
func BenchmarkE5_Fleet4Workers(b *testing.B) {
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{})
	for i := 0; i < 4; i++ {
		ts := httptest.NewServer(fleet.NewWorker(campaign.New(campaign.Config{})))
		b.Cleanup(ts.Close)
		coord.Register(ts.URL)
	}
	addrSpec := campaign.Spec{Bus: "addr", Size: benchLibrarySize, Seed: 3001}
	dataSpec := campaign.Spec{Bus: "data", Size: benchLibrarySize, Seed: 3002}
	// Warm the workers' golden-runner and library caches, as benchE5Engine's
	// setup does outside the timer.
	for _, spec := range []campaign.Spec{addrSpec, dataSpec} {
		if _, _, _, err := coord.RunCampaign(context.Background(), spec, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	shards, replayHits := 0, 0
	for i := 0; i < b.N; i++ {
		for _, spec := range []campaign.Spec{addrSpec, dataSpec} {
			res, _, st, err := coord.RunCampaign(context.Background(), spec, 0)
			if err != nil {
				b.Fatal(err)
			}
			shards += st.Shards
			for _, out := range res.Outcomes {
				if out.Replayed {
					replayHits++
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(shards)/float64(b.N), "shards/op")
	b.ReportMetric(float64(replayHits)/float64(b.N), "replay-hits/op")
}

// e5ServicePair submits the E5 addr+data campaign pair to the manager and
// waits both out, returning the wall time of the pair.
func e5ServicePair(b *testing.B, m *campaign.Manager) time.Duration {
	b.Helper()
	t0 := time.Now()
	for _, spec := range []campaign.Spec{
		{Bus: "addr", Size: benchLibrarySize, Seed: 3001},
		{Bus: "data", Size: benchLibrarySize, Seed: 3002},
	} {
		job, err := m.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
		if err := job.Err(); err != nil {
			b.Fatal(err)
		}
	}
	return time.Since(t0)
}

// benchE5Telemetry runs the E5 campaign pair through the service tier with
// the given telemetry bundle.
func benchE5Telemetry(b *testing.B, tel *obs.Telemetry) {
	m := campaign.New(campaign.Config{Obs: tel})
	e5ServicePair(b, m) // warm the golden-runner and library caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e5ServicePair(b, m)
	}
}

// BenchmarkE5_TelemetryOn measures E5 through the service tier with full
// telemetry: per-defect latency histograms, spans, and recorder events.
func BenchmarkE5_TelemetryOn(b *testing.B) { benchE5Telemetry(b, obs.NewTelemetry()) }

// BenchmarkE5_TelemetryOff is the same run with telemetry disabled (the
// registry still exists; observation hooks, spans and events are off) — the
// baseline the ≤2% overhead acceptance bound compares against.
func BenchmarkE5_TelemetryOff(b *testing.B) { benchE5Telemetry(b, obs.Disabled()) }

// BenchmarkE5_TelemetryOverhead interleaves telemetry-on and telemetry-off
// service runs pair by pair, so machine drift hits both sides equally — the
// paired measurement behind the telemetry-overhead figure in
// bench/history.json. (Running the
// On and Off benchmarks back to back instead puts whole minutes between the
// two measurements, and on a shared machine that drift alone reads as a few
// percent.) The reported ns/op covers one on+off pair; the split is in the
// on-ns/op and off-ns/op metrics.
func BenchmarkE5_TelemetryOverhead(b *testing.B) {
	on := campaign.New(campaign.Config{Obs: obs.NewTelemetry()})
	off := campaign.New(campaign.Config{Obs: obs.Disabled()})
	e5ServicePair(b, on) // warm both managers' caches
	e5ServicePair(b, off)
	var tOn, tOff time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tOn += e5ServicePair(b, on)
		tOff += e5ServicePair(b, off)
	}
	b.StopTimer()
	b.ReportMetric(float64(tOn.Nanoseconds())/float64(b.N), "on-ns/op")
	b.ReportMetric(float64(tOff.Nanoseconds())/float64(b.N), "off-ns/op")
	b.ReportMetric((float64(tOn)/float64(tOff)-1)*100, "overhead-%")
}

// BenchmarkE5_FleetObsOverhead extends the telemetry pairing to the fleet
// observability layer: the on side runs the E5 campaign pair with full
// telemetry plus the per-heartbeat federation work a coordinator and worker
// add (render the live registry, parse it as ingest does, relabel and merge
// two worker snapshots, render the fleet exposition) and an SLO burn-rate
// evaluation tick; the off side is the disabled-telemetry baseline. Pairs
// interleave so machine drift cancels — the figure in bench/history.json
// behind the ≤2% federation+SLO overhead bound.
func BenchmarkE5_FleetObsOverhead(b *testing.B) {
	on := campaign.New(campaign.Config{Obs: obs.NewTelemetry()})
	off := campaign.New(campaign.Config{Obs: obs.Disabled()})
	fleetCycle := func() {
		var exp strings.Builder
		if err := on.Obs().Reg.WritePrometheus(&exp); err != nil {
			b.Fatal(err)
		}
		snaps := make(map[string]*obs.Snapshot, 2)
		for _, url := range []string{"http://w1:1", "http://w2:1"} {
			snap, err := obs.ParseExposition(strings.NewReader(exp.String()))
			if err != nil {
				b.Fatal(err)
			}
			snaps[url] = snap
		}
		fed, err := obs.Federate(snaps)
		if err != nil {
			b.Fatal(err)
		}
		var out strings.Builder
		if err := fed.WritePrometheus(&out); err != nil {
			b.Fatal(err)
		}
		on.Obs().SLO.Tick(time.Now())
	}
	e5ServicePair(b, on) // warm both managers' caches
	e5ServicePair(b, off)
	var tOn, tOff time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		e5ServicePair(b, on)
		fleetCycle()
		tOn += time.Since(t0)
		tOff += e5ServicePair(b, off)
	}
	b.StopTimer()
	b.ReportMetric(float64(tOn.Nanoseconds())/float64(b.N), "on-ns/op")
	b.ReportMetric(float64(tOff.Nanoseconds())/float64(b.N), "off-ns/op")
	b.ReportMetric((float64(tOn)/float64(tOff)-1)*100, "overhead-%")
}

// BenchmarkE5_MinimizedProgram measures the payoff of the diagnose
// subsystem's set-cover minimization (the "minimize" job): the E5
// address-bus campaign under the full program versus the verified minimized
// program. Setup — the full campaign, the greedy cover and the
// verify-augment repair rounds — happens outside the timer; the timed loop
// interleaves one full and one minimized campaign so machine drift cancels
// out of the speedup. The reported ns/op covers one full+minimized pair;
// the split is in the full-ns/op and min-ns/op metrics, and the program
// shrinkage in full/min-tests and full/min-cycles.
func BenchmarkE5_MinimizedProgram(b *testing.B) {
	plan := mustPlan(b, core.GenConfig{})
	r := mustRunner(b, plan)
	addr, data := mustSetups(b)
	lib := mustLibrary(b, addr, benchLibrarySize, 3001)
	full, err := r.Campaign(core.AddrBus, lib)
	if err != nil {
		b.Fatal(err)
	}
	sets := diagnose.Collect(full.Outcomes)
	cover := diagnose.GreedyCover(sets)
	var minPlan *core.Plan
	var minRunner *sim.Runner
	repair, err := diagnose.RepairCover(sets, cover,
		func(filter func(maf.Fault) bool) ([]sim.Outcome, error) {
			var err error
			if minPlan, err = core.Generate(core.GenConfig{Filter: filter}); err != nil {
				return nil, err
			}
			if minRunner, err = sim.NewRunner(minPlan, addr, data); err != nil {
				return nil, err
			}
			res, err := minRunner.Campaign(core.AddrBus, lib)
			if err != nil {
				return nil, err
			}
			return res.Outcomes, nil
		})
	if err != nil {
		b.Fatal(err)
	}
	if !repair.Verification.Identical {
		b.Fatalf("minimized program not byte-identical after %d rounds: %+v",
			repair.Rounds, repair.Verification)
	}
	var tFull, tMin time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := r.Campaign(core.AddrBus, lib); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := minRunner.Campaign(core.AddrBus, lib); err != nil {
			b.Fatal(err)
		}
		tFull += t1.Sub(t0)
		tMin += time.Since(t1)
	}
	b.StopTimer()
	b.ReportMetric(float64(tFull.Nanoseconds())/float64(b.N), "full-ns/op")
	b.ReportMetric(float64(tMin.Nanoseconds())/float64(b.N), "min-ns/op")
	b.ReportMetric(float64(plan.TotalApplied()), "full-tests")
	b.ReportMetric(float64(minPlan.TotalApplied()), "min-tests")
	b.ReportMetric(float64(r.GoldenCycles()), "full-cycles")
	b.ReportMetric(float64(minRunner.GoldenCycles()), "min-cycles")
	b.Logf("E5min: %d -> %d applied tests (%d chosen + %d augmented of %d dictionary tests), %d -> %d golden cycles, verification identical in %d rounds",
		plan.TotalApplied(), minPlan.TotalApplied(), len(cover.Chosen), len(repair.Added),
		cover.FullTests, r.GoldenCycles(), minRunner.GoldenCycles(), repair.Rounds)
}

// BenchmarkE6_BaselineComparison regenerates the paper's comparison claims
// (§1): software-based self-test has zero hardware overhead and no
// over-testing; hardware BIST pays area and over-tests; a slow external
// tester misses at-speed (delay) defects.
func BenchmarkE6_BaselineComparison(b *testing.B) {
	addr, data := mustSetups(b)
	addrLib := mustLibrary(b, addr, benchLibrarySize, 4001)
	plan := mustPlan(b, core.GenConfig{})
	r := mustRunner(b, plan)

	profile := bist.FunctionalProfile{ConstantWires: map[int]uint{11: 0, 10: 0}}
	eng, err := bist.New(addr.Thresholds, parwan.AddrBits, false)
	if err != nil {
		b.Fatal(err)
	}
	slow, err := tester.New(addr.Thresholds, parwan.AddrBits, false, 0.25)
	if err != nil {
		b.Fatal(err)
	}

	var sbst *sim.CampaignResult
	var hw bist.Analysis
	var ext tester.Analysis
	for i := 0; i < b.N; i++ {
		sbst, err = r.Campaign(core.AddrBus, addrLib)
		if err != nil {
			b.Fatal(err)
		}
		hw, err = eng.Campaign(addrLib, profile)
		if err != nil {
			b.Fatal(err)
		}
		ext, err = slow.Campaign(addrLib)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = data
	tbl := report.NewTable("E6: address-bus methods compared",
		"method", "coverage", "area (gates)", "over-tested", "escapes", "tester speed")
	tbl.AddRow("SBST (this paper)", sbst.Coverage(), 0, 0, 0, "low-speed load/unload")
	tbl.AddRow("hardware BIST [2]", hw.Coverage(), bist.AreaOverhead(parwan.AddrBits), hw.OverTested, 0, "none")
	tbl.AddRow("external @ 1/4 speed", ext.Coverage(), 0, 0, ext.Escapes, "1/4 of system clock")
	b.Logf("\n%s", tbl)
	b.Logf("BIST relative overhead on a 5k-gate SoC: %.1f%%; on a 500k-gate SoC: %.2f%%",
		bist.RelativeOverhead(parwan.AddrBits, 5000)*100,
		bist.RelativeOverhead(parwan.AddrBits, 500000)*100)
}

// BenchmarkA1_ThresholdSweep: ablation of the detectability threshold Cth —
// library acceptance and SBST coverage as the threshold scales.
func BenchmarkA1_ThresholdSweep(b *testing.B) {
	plan := mustPlan(b, core.GenConfig{})
	type row struct {
		factor     float64
		acceptance float64
		coverage   float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, factor := range []float64{1.3, 1.55, 1.75, 2.0} {
			nom := crosstalk.Nominal(parwan.AddrBits)
			th, err := crosstalk.DeriveThresholds(nom, factor)
			if err != nil {
				b.Fatal(err)
			}
			lib, err := defects.Generate(nom, th, defects.Config{Size: 80, Seed: 5001})
			if err != nil {
				b.Fatal(err)
			}
			addrSetup := sim.BusSetup{Nominal: nom, Thresholds: th}
			_, dataSetup := mustSetups(b)
			r, err := sim.NewRunner(plan, addrSetup, dataSetup)
			if err != nil {
				b.Fatal(err)
			}
			res, err := r.Campaign(core.AddrBus, lib)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{factor, lib.AcceptanceRate(), res.Coverage()})
		}
	}
	tbl := report.NewTable("A1: Cth sweep (address bus)", "Cth factor", "defect acceptance", "SBST coverage")
	for _, r := range rows {
		tbl.AddRow(r.factor, r.acceptance, r.coverage)
	}
	b.Logf("\n%s", tbl)
}

// BenchmarkA2_SigmaSweep: ablation of the defect-distribution width (the
// paper fixes 3-sigma at 150%).
func BenchmarkA2_SigmaSweep(b *testing.B) {
	addr, _ := mustSetups(b)
	type row struct {
		sigma      float64
		acceptance float64
		centre     int
		edge       int
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, sigma := range []float64{0.35, 0.5, 0.7, 1.0} {
			lib, err := defects.Generate(addr.Nominal, addr.Thresholds,
				defects.Config{Sigma: sigma, Size: 150, Seed: 6001})
			if err != nil {
				b.Fatal(err)
			}
			h := lib.VictimHistogram()
			rows = append(rows, row{sigma, lib.AcceptanceRate(), h[5] + h[6], h[0] + h[11]})
		}
	}
	tbl := report.NewTable("A2: sigma sweep (paper: sigma=0.5)",
		"sigma", "acceptance", "centre-wire defects", "edge-wire defects")
	for _, r := range rows {
		tbl.AddRow(r.sigma, r.acceptance, r.centre, r.edge)
	}
	b.Logf("\n%s", tbl)
}

// BenchmarkA3_SessionSplitting: ablation of multi-session generation — how
// many address-bus tests each added session recovers (the paper's remedy
// for its 7 conflicted tests).
func BenchmarkA3_SessionSplitting(b *testing.B) {
	type row struct{ sessions, applied, inapplicable int }
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, s := range []int{1, 2, 3, 4} {
			plan := mustPlan(b, core.GenConfig{MaxSessions: s, SkipDataBus: true})
			total, _ := plan.AppliedOn(core.AddrBus)
			rows = append(rows, row{s, total, len(plan.Inapplicable)})
		}
	}
	tbl := report.NewTable("A3: session splitting (48 address-bus MAFs)",
		"max sessions", "applied", "inapplicable")
	for _, r := range rows {
		tbl.AddRow(r.sessions, r.applied, r.inapplicable)
	}
	b.Logf("\n%s", tbl)
}

// BenchmarkA4_Compaction: ablation of response compaction (§4.3) — program
// size, response cells, and coverage with and without it.
func BenchmarkA4_Compaction(b *testing.B) {
	_, data := mustSetups(b)
	lib := mustLibrary(b, data, 80, 7001)
	type row struct {
		mode      string
		bytes     int
		respCells int
		coverage  float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, compact := range []bool{false, true} {
			plan := mustPlan(b, core.GenConfig{Compaction: compact})
			r := mustRunner(b, plan)
			res, err := r.Campaign(core.DataBus, lib)
			if err != nil {
				b.Fatal(err)
			}
			mode := "per-test store"
			if compact {
				mode = "compacted (§4.3)"
			}
			rows = append(rows, row{mode, plan.Programs[0].Image.UsedCount(),
				len(plan.Programs[0].ResponseCells), res.Coverage()})
		}
	}
	tbl := report.NewTable("A4: response compaction (data bus)",
		"mode", "program bytes", "response cells", "coverage")
	for _, r := range rows {
		tbl.AddRow(r.mode, r.bytes, r.respCells, r.coverage)
	}
	b.Logf("\n%s", tbl)
}

// BenchmarkA6_GlitchMarginSweep: ablation of the receiver's glitch-latching
// margin. With a tight margin (glitches latch as easily as delays err), a
// slow external tester loses little; with realistic margins, the population
// of delay-only marginal defects grows and low-speed escapes balloon —
// isolating the mechanism behind the paper's at-speed argument.
func BenchmarkA6_GlitchMarginSweep(b *testing.B) {
	nom := crosstalk.Nominal(parwan.AddrBits)
	type row struct {
		margin   float64
		atSpeed  float64
		halfRate float64
		escapes  int
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, margin := range []float64{1.0, 1.15, 1.4} {
			th, err := crosstalk.DeriveThresholdsMargin(nom, 0, margin)
			if err != nil {
				b.Fatal(err)
			}
			lib, err := defects.Generate(nom, th, defects.Config{Size: 120, Seed: 9001})
			if err != nil {
				b.Fatal(err)
			}
			at, err := tester.New(th, parwan.AddrBits, false, 1.0)
			if err != nil {
				b.Fatal(err)
			}
			aAt, err := at.Campaign(lib)
			if err != nil {
				b.Fatal(err)
			}
			half, err := tester.New(th, parwan.AddrBits, false, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			aHalf, err := half.Campaign(lib)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{margin, aAt.Coverage(), aHalf.Coverage(), aHalf.Escapes})
		}
	}
	tbl := report.NewTable("A6: glitch-margin sweep (external tester, address bus)",
		"glitch margin", "at-speed coverage", "half-speed coverage", "half-speed escapes")
	for _, r := range rows {
		tbl.AddRow(r.margin, r.atSpeed, r.halfRate, r.escapes)
	}
	b.Logf("\n%s", tbl)
}

// BenchmarkA7_FunctionalHeadroom: empirical measurement of the over-testing
// premise (§1) — random functional workloads are executed and every bus
// transition evaluated against the nominal crosstalk model; the headroom
// between the worst functional stress and the maximum-aggressor stress is
// exactly the margin where test-mode-only patterns over-test.
func BenchmarkA7_FunctionalHeadroom(b *testing.B) {
	nomAddr := crosstalk.Nominal(parwan.AddrBits)
	thAddr, err := crosstalk.DeriveThresholds(nomAddr, 0)
	if err != nil {
		b.Fatal(err)
	}
	var minHead, maxHead float64
	var transitions int
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(123))
		agg := make([]float64, parwan.AddrBits)
		transitions = 0
		for prog := 0; prog < 10; prog++ {
			im, entry, err := workload.RandomProgram(rng, workload.Config{Instructions: 60})
			if err != nil {
				b.Fatal(err)
			}
			stats, err := workload.Measure(im, entry, 1000, "addr", nomAddr, thAddr)
			if err != nil {
				b.Fatal(err)
			}
			transitions += stats.Transitions
			for w, g := range stats.MaxGlitchRatio {
				if g > agg[w] {
					agg[w] = g
				}
				if d := stats.MaxDelayRatio[w]; d > agg[w] {
					agg[w] = d
				}
			}
		}
		minHead, maxHead = 1, 0
		for _, worst := range agg {
			h := 1 - worst
			if h < minHead {
				minHead = h
			}
			if h > maxHead {
				maxHead = h
			}
		}
	}
	b.ReportMetric(minHead*100, "min-headroom-%")
	b.Logf("A7: over %d functional bus transitions, per-wire headroom to the MA worst case spans "+
		"%.0f%%..%.0f%% — the margin in which test-mode-only patterns over-test",
		transitions, minHead*100, maxHead*100)
}

// BenchmarkA5_TestOverlap: ablation of MA-test redundancy — per defect, how
// many of the 48 MA patterns excite it directly on the bus, quantifying
// §5's "of all the defects detectable by one MA test, only a tiny fraction
// cannot be detected by any other MA tests" (the reason 100% coverage
// survives 7 missing tests).
func BenchmarkA5_TestOverlap(b *testing.B) {
	addr, _ := mustSetups(b)
	lib := mustLibrary(b, addr, benchLibrarySize, 8001)
	eng, err := bist.New(addr.Thresholds, parwan.AddrBits, false)
	if err != nil {
		b.Fatal(err)
	}
	var unique, total int
	var sumTests int
	for i := 0; i < b.N; i++ {
		unique, total, sumTests = 0, 0, 0
		for _, d := range lib.Defects {
			det, by, err := eng.Detects(d.Params)
			if err != nil {
				b.Fatal(err)
			}
			if !det {
				continue
			}
			total++
			sumTests += len(by)
			if len(by) == 1 {
				unique++
			}
		}
	}
	frac := float64(unique) / float64(total)
	b.ReportMetric(frac*100, "unique-detection-%")
	b.Logf("A5: %d of %d defects (%.1f%%) excitable by exactly one MA test; "+
		"mean %.1f exciting tests per defect (paper: only a tiny fraction lack overlap)",
		unique, total, frac*100, float64(sumTests)/float64(total))
}

// benchInfieldSchedule measures an in-field schedule: every manifest slice's
// sub-plan campaign over the full library, merged into the coverage ledger.
// Reported metrics: mean per-slice campaign latency, the manifest's slice
// count, and how many slices the curve needs to reach its converged coverage
// (the one-shot campaign's detection count, by the convergence identity).
func benchInfieldSchedule(b *testing.B, tgt target.Target, plan *core.Plan, busID core.BusID, libSeed int64) {
	models, err := tgt.BusModels(0)
	if err != nil {
		b.Fatal(err)
	}
	full, err := sim.NewTargetRunner(tgt, plan, models)
	if err != nil {
		b.Fatal(err)
	}
	lib, err := defects.Generate(models[busID].Nominal, models[busID].Thresholds,
		defects.Config{Size: benchLibrarySize, Seed: libSeed})
	if err != nil {
		b.Fatal(err)
	}
	manifest, err := infield.BuildManifest(plan,
		func(s int) uint64 { return full.Golden(s).Cycles },
		infield.Config{PlanHash: "bench", Seed: libSeed})
	if err != nil {
		b.Fatal(err)
	}
	// Slice runners build once, as the campaign manager's cache would serve
	// them across recurring slices; the timed loop is the slice campaigns.
	runners := make([]*sim.Runner, len(manifest.Slices))
	for i, sl := range manifest.Slices {
		sub, err := infield.SubPlan(plan, sl)
		if err != nil {
			b.Fatal(err)
		}
		if runners[i], err = sim.NewTargetRunner(tgt, sub, models); err != nil {
			b.Fatal(err)
		}
	}
	var toConverge int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ledger := infield.NewLedger(len(lib.Defects), len(manifest.Slices), busID)
		for j, sl := range manifest.Slices {
			res, err := runners[j].Campaign(busID, lib)
			if err != nil {
				b.Fatal(err)
			}
			if err := ledger.MergeSlice(sl.Index, res.Outcomes, infield.PointMeta{SliceCycles: sl.Cycles}); err != nil {
				b.Fatal(err)
			}
		}
		pts := ledger.Points()
		final := pts[len(pts)-1].Detected
		toConverge = len(pts)
		for _, pt := range pts {
			if pt.Detected == final {
				toConverge = pt.Merged
				break
			}
		}
	}
	b.StopTimer()
	perSlice := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(manifest.Slices))
	b.ReportMetric(perSlice/1e6, "slice-ms")
	b.ReportMetric(float64(len(manifest.Slices)), "slices")
	b.ReportMetric(float64(toConverge), "slices-to-coverage")
}

// BenchmarkE5_Infield runs the paper's E5 address-bus campaign as a sliced
// in-field schedule at session granularity (the finest manifest).
func BenchmarkE5_Infield(b *testing.B) {
	tgt, err := target.Parse("")
	if err != nil {
		b.Fatal(err)
	}
	plan := mustPlan(b, core.GenConfig{})
	benchInfieldSchedule(b, tgt, plan, core.AddrBus, 3001)
}

// BenchmarkWideBus32_Infield runs the 32-wire scripted bus as an 8-slice
// in-field schedule (MaxSessions splits the script into 8 sessions).
func BenchmarkWideBus32_Infield(b *testing.B) {
	tgt := target.MustWideBus(32)
	plan, err := tgt.Generate(target.GenSpec{MaxSessions: 8})
	if err != nil {
		b.Fatal(err)
	}
	benchInfieldSchedule(b, tgt, plan, core.BusID(0), 4032)
}
