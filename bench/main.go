// Command bench is the xtalk benchmark: four workloads at the paper's scale
// (1000 defects per bus, §5), measured end to end from outside the program,
// and a traced replay of each workload's pipeline that breaks its cost down
// by layer. Every run checks its outputs against the Execute-engine oracle.
//
// Run it from the repository root (see README.md):
//
//	bash bench/run.sh [--seed N] [--seconds S] [--spans out.ndjson]
//	bash bench/run.sh --workload e5-warm --seed 3 --seconds 15 --trace 0
//
// Without --workload it runs every workload, each in its own child process,
// untraced and then traced, and prints each metric as
// "workload metric value unit". With --workload it runs one workload once;
// its last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0, the
// per-layer ones with --trace 1). It exits non-zero if any output is wrong.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// metricDef declares one reported metric. bound, for end-to-end metrics, is
// the share of the baseline median by which the metric may worsen before a
// change counts as a regression. BENCHMARK.json repeats these tables.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_p50_s", "s", "lower", 0.25},
	{"job_p90_s", "s", "lower", 0.25},
	{"defects_per_s", "1/s", "higher", 0.25},
	{"slice_worst_p50_ms", "ms", "lower", 0.25},
	{"slice_worst_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"selftest_cycles", "cycles", "lower", 0},
	{"coverage_pct", "%", "higher", 0},
}

var perLayer = []metricDef{
	{name: "core.generate_ms", unit: "ms", better: "lower"},
	{name: "campaign.plan_hash_ms", unit: "ms", better: "lower"},
	{name: "campaign.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "campaign.golden_hit_ratio", unit: "ratio", better: "higher"},
	{name: "campaign.library_hit_ratio", unit: "ratio", better: "higher"},
	{name: "target.golden_ms", unit: "ms", better: "lower"},
	{name: "target.resume_halted_ms", unit: "ms", better: "lower"},
	{name: "target.resume_crashed_ms", unit: "ms", better: "lower"},
	{name: "target.resume_hung_ms", unit: "ms", better: "lower"},
	{name: "target.resume_halted_n", unit: "count", better: "lower"},
	{name: "target.resume_crashed_n", unit: "count", better: "lower"},
	{name: "target.resume_hung_n", unit: "count", better: "lower"},
	{name: "target.resume_steps", unit: "count", better: "lower"},
	{name: "target.hung_steps", unit: "count", better: "lower"},
	{name: "defects.generate_ms", unit: "ms", better: "lower"},
	{name: "crosstalk.batch_build_ms", unit: "ms", better: "lower"},
	{name: "crosstalk.event_mask_ms", unit: "ms", better: "lower"},
	{name: "crosstalk.event_mask_calls", unit: "count", better: "lower"},
	{name: "sim.campaign_ms", unit: "ms", better: "lower"},
	{name: "sim.screen_ms", unit: "ms", better: "lower"},
	{name: "sim.resume_busy_ms", unit: "ms", better: "lower"},
	{name: "sim.clean_n", unit: "count", better: "higher"},
	{name: "sim.resumed_n", unit: "count", better: "lower"},
	{name: "sim.memo_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sim.worker_util", unit: "ratio", better: "higher"},
	{name: "report.render_ms", unit: "ms", better: "lower"},
	{name: "infield.manifest_ms", unit: "ms", better: "lower"},
	{name: "infield.subplan_ms", unit: "ms", better: "lower"},
	{name: "infield.merge_ms", unit: "ms", better: "lower"},
	{name: "infield.slices", unit: "count", better: "lower"},
	{name: "fleet.shard_key_ms", unit: "ms", better: "lower"},
	{name: "fleet.shards", unit: "count", better: "lower"},
	{name: "fleet.shard_serve_ms", unit: "ms", better: "lower"},
	{name: "fleet.shard_resp_kb", unit: "KiB", better: "lower"},
	{name: "fleet.coord_overhead_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}

// The paper's reference values for the Parwan system (§5).
const (
	paperCycles   = 1720
	paperCoverage = 100.0
)

// metricValue and result are the JSON line a single-workload run ends with.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "run only this workload (e5-warm, widebus64, infield-e5, fleet-e5)")
	seed := flag.Int64("seed", 1, "seed the defect libraries are derived from")
	seconds := flag.Int("seconds", 10, "length of each measured loop, in seconds")
	trace := flag.Int("trace", 0, "with --workload: 0 reports end-to-end metrics, 1 runs the traced replay")
	spans := flag.String("spans", "", "append the traced runs' spans to this NDJSON file")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds < 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: float64(*seconds), scale: paperScale, starts: 5, minJobs: 10, spans: *spans}
	if *name == "" {
		os.Exit(runAll(cfg))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := runOne(os.Stdout, w, cfg, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("outputs differ from the oracle")

// runOne runs one workload, prints its metrics and ends with the JSON line.
func runOne(out *os.File, w workload, cfg runConfig, traced bool) error {
	measure, defs := measureEndToEnd, endToEnd
	if traced {
		measure, defs = measureLayers, perLayer
	}
	o, err := measure(context.Background(), w, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res := result{Correct: o.correct && o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	for _, n := range o.notes {
		fmt.Fprintf(out, "# %s: %s\n", w.name, n)
	}
	for _, d := range defs {
		v := o.metrics[d.name]
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(out, "%s %s %s %s%s\n", w.name, d.name, strconv.FormatFloat(v, 'g', 6, 64), d.unit, reference(w, d.name, v))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// reference states the paper's value beside the simulated-design metrics.
func reference(w workload, name string, v float64) string {
	var ref float64
	switch name {
	case "selftest_cycles":
		ref = paperCycles
	case "coverage_pct":
		ref = paperCoverage
	default:
		return ""
	}
	if !w.paper {
		return " (no paper reference: synthetic target)"
	}
	return fmt.Sprintf(" (paper %g, error %+.1f%%)", ref, 100*(v-ref)/ref)
}

// runAll runs every workload, untraced then traced, each in a child process
// of its own so peak RSS and garbage-collector state stay per workload.
func runAll(cfg runConfig) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if cfg.spans != "" {
		if err := os.WriteFile(cfg.spans, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Printf("# seed %d, %g s per loop, GOMAXPROCS %d, %s\n", cfg.seed, cfg.seconds, runtime.GOMAXPROCS(0), runtime.Version())
	status := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(cfg.seed, 10),
				"--seconds", strconv.Itoa(int(cfg.seconds)), "--trace", trace}
			if trace == "1" && cfg.spans != "" {
				args = append(args, "--spans", cfg.spans)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var r result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr == nil {
				lines = lines[:len(lines)-1]
			}
			fmt.Println(strings.Join(lines, "\n"))
			if err != nil || !r.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s --trace %s failed (%v)\n", w.name, trace, err)
				status = 1
			}
		}
	}
	return status
}
