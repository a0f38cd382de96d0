// Command xtalk runs the reproduction's experiments at full scale: test
// program generation, defect-library generation, defect-simulation
// campaigns, the Fig. 11 chart, and the baseline comparison.
//
// Usage:
//
//	xtalk gen     [-compaction] [-sessions N] [-listing]
//	xtalk params  [-width N] [-cth F] [-o file]
//	xtalk defects [-target T] [-bus name] [-size N] [-sigma S] [-seed N]
//	xtalk sim     [-target T] [-bus name] [-size N] [-seed N] [-compaction]
//	              [-plan file] [-workers url1,url2,...] [-shards N] [-trace out.ndjson]
//	xtalk fig11   [-size N] [-seed N] [-csv]
//	xtalk compare [-size N] [-seed N]
//	xtalk diagnose [-target T] [-bus name] [-size N] [-seed N] [-signature "dr[3]/fwd,..."]
//	               [-o out.json] [-workers ...]
//	xtalk minimize [-target T] [-bus name] [-size N] [-seed N] [-o out.json] [-workers ...]
//	xtalk rank     [-target T] [-bus name] [-size N] [-seed N] [-o out.json] [-workers ...]
//	xtalk infield  [-target T] [-bus name] [-size N] [-seed N] [-sessions N] [-slice-cycles N | -slices N]
//	               [-interval D] [-o out.ndjson] [-workers ...] [-shards N]
//	xtalk status   [-daemon http://localhost:8080] [-timeout 5s]
//
// The -target flag selects the backend under test: "parwan" (the paper's
// CPU-memory system; the default) or "widebusN" (a synthetic N-wire scripted
// bus, e.g. widebus32). The -bus flag names one of the target's channels
// ("addr" or "data" for parwan, "bus" for wide-bus targets); empty selects
// the address bus for parwan and the first channel otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bist"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/parwan"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/target"
	"repro/internal/tester"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "params":
		err = cmdParams(os.Args[2:])
	case "defects":
		err = cmdDefects(os.Args[2:])
	case "sim":
		err = cmdSim(os.Args[2:])
	case "fig11":
		err = cmdFig11(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "margins":
		err = cmdMargins(os.Args[2:])
	case "diagnose":
		err = cmdDiagnose(os.Args[2:])
	case "minimize":
		err = cmdMinimize(os.Args[2:])
	case "rank":
		err = cmdRank(os.Args[2:])
	case "infield":
		err = cmdInfield(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "xtalk: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtalk:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xtalk <command> [flags]

commands:
  gen      generate the self-test plan and report applicability
  params   emit a nominal bus parameter file
  defects  generate a defect library and report its composition
  sim      run a full defect-simulation campaign (E5)
  fig11    regenerate the paper's Fig. 11 coverage chart (E4)
  compare  compare SBST against hardware BIST and external test (E6)
  margins  per-wire worst-case crosstalk margins of a bus description
  diagnose build the detection-set dictionary; localize a failure signature
  minimize set-cover test-program minimization with coverage verification
  rank     per-wire crosstalk vulnerability ranking (Fig. 11 analytics)
  infield  sliced in-field test schedule with convergent coverage accounting
  status   health, SLO alerts, fleet and job summary of a live xtalkd`)
}

func setups() (sim.BusSetup, sim.BusSetup, error) {
	return sim.DefaultSetups()
}

// resolveTarget parses a target descriptor and a channel name into the
// backend, its per-channel models, and the selected channel. An empty bus
// selects "addr" on parwan (the paper's default experiment) and the target's
// first channel otherwise.
func resolveTarget(targetName, bus string) (target.Target, []sim.BusSetup, core.BusID, string, error) {
	tgt, err := target.Parse(targetName)
	if err != nil {
		return nil, nil, 0, "", err
	}
	topo := tgt.Topology()
	if bus == "" {
		bus = topo.Channels[0].Name
		if tgt.Name() == "parwan" {
			bus = "addr"
		}
	}
	id, ok := topo.Channel(bus)
	if !ok {
		return nil, nil, 0, "", fmt.Errorf("target %s has no bus %q (want one of %v)", tgt.Name(), bus, topo.Names())
	}
	models, err := tgt.BusModels(0)
	if err != nil {
		return nil, nil, 0, "", err
	}
	return tgt, models, id, bus, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	compaction := fs.Bool("compaction", false, "compact responses in the accumulator (§4.3)")
	sessions := fs.Int("sessions", 0, "maximum follow-up sessions (default 4)")
	listing := fs.Bool("listing", false, "print a disassembly listing of each session program")
	out := fs.String("o", "", "save the plan (programs + metadata) as JSON")
	verify := fs.Bool("verify", false, "verify every applied test drives its vector pair")
	if err := fs.Parse(args); err != nil {
		return err
	}
	plan, err := core.Generate(core.GenConfig{Compaction: *compaction, MaxSessions: *sessions})
	if err != nil {
		return err
	}
	if *verify {
		violations, err := sim.VerifyPlan(plan)
		if err != nil {
			return err
		}
		if len(violations) == 0 {
			fmt.Println("verify: every applied test drives its MA vector pair")
		}
		for _, v := range violations {
			fmt.Println("verify FAILED:", v)
		}
	}
	if *out != "" {
		if err := core.SavePlan(*out, plan); err != nil {
			return err
		}
		fmt.Printf("plan saved to %s\n", *out)
	}
	dTotal, dFirst := plan.AppliedOn(core.DataBus)
	aTotal, aFirst := plan.AppliedOn(core.AddrBus)
	tbl := report.NewTable("Self-test plan", "bus", "MAFs", "first session", "all sessions")
	tbl.AddRow("data", 64, dFirst, dTotal)
	tbl.AddRow("addr", 48, aFirst, aTotal)
	if err := tbl.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	prog := report.NewTable("Session programs", "session", "tests", "bytes", "response cells")
	for _, p := range plan.Programs {
		prog.AddRow(p.Session, len(p.Applied), p.Image.UsedCount(), len(p.ResponseCells))
	}
	if err := prog.Write(os.Stdout); err != nil {
		return err
	}
	if len(plan.Inapplicable) > 0 {
		fmt.Printf("\ninapplicable (%d):\n", len(plan.Inapplicable))
		for _, r := range plan.Inapplicable {
			fmt.Printf("  %v: %s\n", r.MA.Fault, r.Reason)
		}
	}
	if *listing {
		for _, p := range plan.Programs {
			fmt.Printf("\n--- session %d (entry %03x) ---\n%s", p.Session, p.Entry, parwan.Listing(p.Image))
		}
	}
	return nil
}

func cmdParams(args []string) error {
	fs := flag.NewFlagSet("params", flag.ExitOnError)
	width := fs.Int("width", parwan.AddrBits, "bus width in wires")
	cth := fs.Float64("cth", 0, "Cth factor (default 1.55)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nom := crosstalk.Nominal(*width)
	th, err := crosstalk.DeriveThresholds(nom, *cth)
	if err != nil {
		return err
	}
	if *out == "" {
		return crosstalk.Write(os.Stdout, nom, th)
	}
	return crosstalk.WriteFile(*out, nom, th)
}

func busSetup(bus string) (sim.BusSetup, bool, error) {
	addr, data, err := setups()
	if err != nil {
		return sim.BusSetup{}, false, err
	}
	switch bus {
	case "addr":
		return addr, false, nil
	case "data":
		return data, true, nil
	default:
		return sim.BusSetup{}, false, fmt.Errorf("unknown bus %q (want addr or data)", bus)
	}
}

func cmdDefects(args []string) error {
	fs := flag.NewFlagSet("defects", flag.ExitOnError)
	targetName := fs.String("target", "", "target backend: parwan (default) or widebusN")
	bus := fs.String("bus", "", "channel to perturb (default: addr for parwan, the target's first channel otherwise)")
	size := fs.Int("size", defects.DefaultLibrarySize, "number of defects")
	sigma := fs.Float64("sigma", defects.DefaultSigma, "capacitance variation sigma")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, models, busID, busName, err := resolveTarget(*targetName, *bus)
	if err != nil {
		return err
	}
	setup := models[busID]
	lib, err := defects.Generate(setup.Nominal, setup.Thresholds,
		defects.Config{Size: *size, Sigma: *sigma, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("%d defects on the %s bus (sigma=%.2f, acceptance %.3g)\n",
		len(lib.Defects), busName, lib.Sigma, lib.AcceptanceRate())
	tbl := report.NewTable("Over-threshold victims per wire", "wire", "defects")
	for w, n := range lib.VictimHistogram() {
		tbl.AddRow(w+1, n)
	}
	return tbl.Write(os.Stdout)
}

// cmdSim runs the campaign as a job of a local campaign.Manager (see
// submitJob), on a fleet with -workers, and prints its coverage, the golden
// cycles the job reports and how the engine resolved its defects.
func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	targetName := fs.String("target", "", "target backend: parwan (default) or widebusN")
	bus := fs.String("bus", "", "channel to test (default: addr for parwan, the target's first channel otherwise)")
	size := fs.Int("size", defects.DefaultLibrarySize, "defect library size")
	seed := fs.Int64("seed", 1, "random seed")
	compaction := fs.Bool("compaction", false, "compact responses")
	planFile := fs.String("plan", "", "load a previously saved plan instead of generating")
	workers := fs.String("workers", "", "comma-separated fleet worker base URLs; runs the campaign distributed")
	shards := fs.Int("shards", 0, "fleet shard count (0 = 4 per worker)")
	traceOut := fs.String("trace", "", "write the job's spans as NDJSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, _, _, busName, err := resolveTarget(*targetName, *bus)
	if err != nil {
		return err
	}
	spec := campaign.Spec{Target: *targetName, Bus: busName, Size: *size, Seed: *seed, Compaction: *compaction}
	if *planFile != "" {
		// A saved plan rides inline in the spec.
		if spec.Plan, err = os.ReadFile(*planFile); err != nil {
			return err
		}
	}
	m, job, err := submitJob(spec, *workers, *shards)
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, m.Obs().Tracer, job.ID()); err != nil {
			return err
		}
		fmt.Printf("trace %s written to %s (%d spans)\n",
			job.ID(), *traceOut, len(m.Obs().Tracer.Trace(job.ID())))
	}
	res, _, _ := job.Result()
	st := job.Status()
	fmt.Printf("campaign: %s %s bus, %d defects\n", spec.TargetName(), busName, res.Total)
	printCoverage(res)
	if st.GoldenCycles > 0 {
		// The job's plan, from the manager's plan cache.
		r, err := m.Resolve(job.Spec())
		if err != nil {
			return err
		}
		fmt.Printf("golden execution time: %d CPU cycles across %d sessions (paper: 1720)\n",
			st.GoldenCycles, len(r.Plan.Programs))
	}
	printEngine(m, st.Progress)
	return nil
}

// newFleet builds a client-side fleet coordinator over comma-separated
// worker base URLs; the workers need no coordinator of their own.
func newFleet(urls string) (*fleet.Coordinator, error) {
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{})
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			coord.Register(u)
		}
	}
	if coord.LiveWorkers() == 0 {
		return nil, fmt.Errorf("no worker URLs in %q", urls)
	}
	return coord, nil
}

// printCoverage prints a campaign's coverage and crash lines.
func printCoverage(res *sim.CampaignResult) {
	fmt.Printf("coverage: %d/%d = %.2f%% (paper: 100%%)\n", res.Detected, res.Total, res.Coverage()*100)
	fmt.Printf("crashed/hung runs counted as detections: %d\n", res.Crashed)
}

// writeTraceFile dumps one trace from a collector as NDJSON.
func writeTraceFile(path string, tr *obs.Tracer, traceID string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteNDJSON(f, traceID); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printEngine prints how the batch engine resolved a job's defects: the
// job's progress attributes each defect to the screen or to execution
// wherever it ran, and the node's registry counts the sweeps and executed
// steps, which on a fleet the workers count instead.
func printEngine(m *campaign.Manager, p campaign.Progress) {
	snap := m.Obs().Reg.Snapshot()
	printEngineCounts(p, func(name string) uint64 {
		v, _ := snap.Value(name, "")
		return uint64(v)
	})
}

// printEngineCounts prints printEngine's lines, reading each registry
// counter through count. The counters are whole numbers, so they print as
// digits at any size.
func printEngineCounts(p campaign.Progress, count func(name string) uint64) {
	if shards := count("xtalkd_fleet_shards_dispatched_total"); shards > 0 {
		fmt.Printf("fleet: %d shards, %d retries; the workers count sweeps and executed steps\n",
			shards, count("xtalkd_fleet_shard_retries_total"))
	}
	fmt.Printf("engine: %d swept clean in %d sweeps, %d divergence fallbacks (%d steps executed)\n",
		p.ReplayHits, count("xtalkd_engine_batch_sweeps_total"), p.Executed, count("xtalkd_engine_executed_steps_total"))
}

func cmdFig11(args []string) error {
	fs := flag.NewFlagSet("fig11", flag.ExitOnError)
	bus := fs.String("bus", "addr", "bus to chart: addr (the paper's Fig. 11) or data")
	size := fs.Int("size", defects.DefaultLibrarySize, "defect library size")
	seed := fs.Int64("seed", 1, "random seed")
	csv := fs.Bool("csv", false, "emit CSV instead of a chart")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addr, data, err := setups()
	if err != nil {
		return err
	}
	setup, isData, err := busSetup(*bus)
	if err != nil {
		return err
	}
	busID := core.AddrBus
	if isData {
		busID = core.DataBus
	}
	lib, err := defects.Generate(setup.Nominal, setup.Thresholds, defects.Config{Size: *size, Seed: *seed})
	if err != nil {
		return err
	}
	pts, err := sim.Fig11CampaignCtx(context.Background(), addr, data, busID, lib, false, sim.CampaignOpts{})
	if err != nil {
		return err
	}
	if *csv {
		tbl := report.NewTable("", "line", "individual", "cumulative")
		for _, p := range pts {
			tbl.AddRow(p.Wire+1, p.Individual, p.Cumulative)
		}
		return tbl.WriteCSV(os.Stdout)
	}
	chart := report.NewBarChart(fmt.Sprintf(
		"Fig 11: crosstalk defect coverage of %s-bus MA tests (%d defects)", *bus, len(lib.Defects)))
	for _, p := range pts {
		chart.Add(fmt.Sprintf("line %2d", p.Wire+1), p.Individual, p.Cumulative)
	}
	return chart.Write(os.Stdout)
}

func cmdMargins(args []string) error {
	fs := flag.NewFlagSet("margins", flag.ExitOnError)
	width := fs.Int("width", parwan.AddrBits, "bus width for a nominal description")
	file := fs.String("file", "", "parameter file to analyse instead of the nominal geometry")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var p *crosstalk.Params
	var th crosstalk.Thresholds
	var err error
	if *file != "" {
		p, th, err = crosstalk.ReadFile(*file)
	} else {
		p = crosstalk.Nominal(*width)
		th, err = crosstalk.DeriveThresholds(p, 0)
	}
	if err != nil {
		return err
	}
	ch, err := crosstalk.NewChannel(p, th)
	if err != nil {
		return err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Worst-case MA-pattern margins (Cth = %.0f fF, glitch threshold %.3f Vdd)",
			th.Cth*1e15, th.GlitchFrac),
		"wire", "net coupling (fF)", "C/Cth", "glitch (Vdd)", "delay fwd (ps)", "delay rev (ps)", "errs")
	for _, m := range crosstalk.Margins(ch) {
		tbl.AddRow(m.Wire+1, m.NetCoupling*1e15, m.CthRatio, m.GlitchFrac,
			m.Delay[0]*1e12, m.Delay[1]*1e12, m.Exceeds(th))
	}
	return tbl.Write(os.Stdout)
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	size := fs.Int("size", defects.DefaultLibrarySize, "defect library size")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addr, data, err := setups()
	if err != nil {
		return err
	}
	lib, err := defects.Generate(addr.Nominal, addr.Thresholds, defects.Config{Size: *size, Seed: *seed})
	if err != nil {
		return err
	}
	plan, err := core.Generate(core.GenConfig{})
	if err != nil {
		return err
	}
	r, err := sim.NewRunner(plan, addr, data)
	if err != nil {
		return err
	}
	sbst, err := r.Campaign(core.AddrBus, lib)
	if err != nil {
		return err
	}
	profile := bist.FunctionalProfile{ConstantWires: map[int]uint{11: 0, 10: 0}}
	eng, err := bist.New(addr.Thresholds, parwan.AddrBits, false)
	if err != nil {
		return err
	}
	hw, err := eng.Campaign(lib, profile)
	if err != nil {
		return err
	}
	tbl := report.NewTable("Method comparison (address bus)",
		"method", "coverage %", "area (gates)", "over-tested", "escapes")
	tbl.AddRow("SBST (this paper)", sbst.Coverage()*100, 0, 0, 0)
	tbl.AddRow("hardware BIST [2]", hw.Coverage()*100, bist.AreaOverhead(parwan.AddrBits), hw.OverTested, 0)
	for _, ratio := range []float64{1.0, 0.5, 0.25, 0.1} {
		x, err := tester.New(addr.Thresholds, parwan.AddrBits, false, ratio)
		if err != nil {
			return err
		}
		a, err := x.Campaign(lib)
		if err != nil {
			return err
		}
		tbl.AddRow(fmt.Sprintf("external @ %.0f%% speed", ratio*100),
			a.Coverage()*100, 0, 0, a.Escapes)
	}
	if err := tbl.Write(os.Stdout); err != nil {
		return err
	}
	m := tester.DefaultCostModel()
	fmt.Printf("\nATE cost model: 100MHz=%.1f, 500MHz=%.1f, 1GHz=%.1f, 2GHz=%.1f (relative units)\n",
		m.Cost(100e6), m.Cost(500e6), m.Cost(1e9), m.Cost(2e9))
	fmt.Printf("BIST relative area: %.1f%% of a 5k-gate SoC, %.2f%% of a 500k-gate SoC\n",
		bist.RelativeOverhead(parwan.AddrBits, 5000)*100,
		bist.RelativeOverhead(parwan.AddrBits, 500000)*100)
	_ = data
	return nil
}
