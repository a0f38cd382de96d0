package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/campaign"
)

// runConfig sets one workload run.
type runConfig struct {
	seed    int64
	seconds float64 // length of the timed (or traced) loop
	scale   scale
	starts  int    // fresh starts timed for setup_s
	minJobs int    // timed jobs run even past the deadline
	spans   string // NDJSON span file for traced runs; "" writes none
}

// outcome is one run's verdict and metrics.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string // sample counts and other context, printed as comments
}

func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// checker collects the report digests of every checked job per spec kind,
// to be compared with the oracle's once timing is over.
type checker struct{ seen []map[[32]byte]int }

func newChecker(kinds int) *checker {
	c := &checker{seen: make([]map[[32]byte]int, kinds)}
	for k := range c.seen {
		c.seen[k] = map[[32]byte]int{}
	}
	return c
}

func (c *checker) record(kind int, out jobOut) error {
	d, err := digest(out.res, out.width)
	if err != nil {
		return err
	}
	c.seen[kind][d]++
	return nil
}

// verify checks one kind against its oracle: the report bytes of every
// recorded job must equal the Execute engine's and, with probe, the probe's
// crashed or hung defects must be exactly the campaign's Crashed ones.
func (c *checker) verify(o *outcome, w workload, kind int, or *oracleOut, probe bool) {
	if len(c.seen[kind]) == 0 {
		o.fail("%s spec %d: no job output was checked", w.name, kind)
	}
	for d, n := range c.seen[kind] {
		if d != or.digest {
			o.fail("%s spec %d: %d job(s) differ from the execute-engine oracle", w.name, kind, n)
		}
	}
	if !probe {
		return
	}
	crashed, err := probeCores{}.probe(nil, or.env, or.plan, or.hash, or.lib)
	if err == nil {
		err = checkCrashed(crashed, or.res)
	}
	if err != nil {
		o.fail("%s spec %d: probe: %v", w.name, kind, err)
	}
}

// measureEndToEnd runs the workload as a user sees it: cold starts for
// set-up time, then a closed loop of jobs from one client for cfg.seconds,
// then the correctness check against the oracle. Every timing is scaled to
// reference time by the calibration loop run after it (see calib.go).
func measureEndToEnd(ctx context.Context, w workload, cfg runConfig) (*outcome, error) {
	o := &outcome{correct: true, metrics: map[string]float64{}}
	ck := newChecker(w.kinds)
	spec := func(i int) campaign.Spec { return w.spec(cfg.seed, cfg.scale, i) }
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	var hostSetups, hostLat []float64 // unscaled, for the notes

	// Set-up: from building the system to its first job's completion, with
	// cold caches. The last system goes on to serve the timed loop.
	var setups []float64
	var sys system
	for k := 0; k < cfg.starts; k++ {
		if k > 0 {
			// A fresh start is a fresh process: return the closed system's
			// heap first, so neither this start's time nor the peak RSS
			// depends on when the collector would have reclaimed it.
			debug.FreeOSMemory()
			cal.mark()
		}
		t0 := time.Now()
		s := newSystem(w)
		out, err := s.run(ctx, spec(0))
		d := time.Since(t0).Seconds()
		setups = append(setups, d*cal.scale())
		hostSetups = append(hostSetups, d)
		o.attempted++
		if err == nil {
			err = ck.record(0, out)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if k < cfg.starts-1 {
			s.close()
		} else {
			sys = s
		}
	}
	defer sys.close()
	for i := 1; i < w.kinds; i++ { // warm the other specs' caches
		out, err := sys.run(ctx, spec(i))
		o.attempted++
		if err == nil {
			err = ck.record(i, out)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	lat := make([][]float64, w.kinds)   // s
	worst := make([][]float64, w.kinds) // ms
	var busy float64
	var defectRuns, n int
	var rss float64
	cal.mark() // the warm-up jobs ran since the last one
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := w.kinds; n < cfg.minJobs || time.Now().Before(deadline); i++ {
		s := spec(i)
		t0 := time.Now()
		out, err := sys.run(ctx, s)
		d := time.Since(t0)
		f := cal.scale()
		o.attempted++
		n++
		if err != nil {
			o.failed++
			o.fail("%s job %d: %v", w.name, i, err)
			continue
		}
		k := i % w.kinds
		lat[k] = append(lat[k], f*d.Seconds())
		hostLat = append(hostLat, d.Seconds())
		slowest := d // an unsliced job is one slice
		if out.slices != nil {
			slowest = maxDuration(out.slices)
		}
		worst[k] = append(worst[k], f*float64(slowest)/1e6)
		busy += f * d.Seconds()
		defectRuns += out.defects
		switch {
		case !w.freshLibs:
			if err := ck.record(k, out); err != nil {
				return nil, err
			}
		case out.res.Total != s.Size:
			o.fail("%s job %d: %d outcomes for %d defects", w.name, i, out.res.Total, s.Size)
		}
		if n == cfg.minJobs {
			rss = maxRSSMiB()
		}
	}

	// Correctness, outside the timed phase.
	var cycles float64
	var detected, total int
	for k := 0; k < w.kinds; k++ {
		or, err := oracle(ctx, spec(k))
		o.attempted++
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		ck.verify(o, w, k, or, false) // the traced run probes
		cycles += float64(or.cycles)
		detected += or.res.Detected
		total += or.res.Total
	}

	perKind := func(xs [][]float64, q float64) float64 {
		var v []float64
		for _, x := range xs {
			v = append(v, quantile(x, q))
		}
		return mean(v)
	}
	o.metrics["setup_s"] = quantile(setups, 0.5)
	o.metrics["job_p50_s"] = perKind(lat, 0.5)
	o.metrics["job_p90_s"] = perKind(lat, 0.9)
	o.metrics["defects_per_s"] = ratio(float64(defectRuns), busy)
	o.metrics["slice_worst_p50_ms"] = perKind(worst, 0.5)
	o.metrics["slice_worst_p90_ms"] = perKind(worst, 0.9)
	o.metrics["peak_rss_mb"] = rss
	o.metrics["selftest_cycles"] = cycles / float64(w.kinds)
	o.metrics["coverage_pct"] = 100 * float64(detected) / float64(total)
	o.notes = append(o.notes, fmt.Sprintf("%d timed jobs over %d spec(s), %d set-up starts, peak RSS read after %d jobs",
		n, w.kinds, cfg.starts, cfg.minJobs),
		fmt.Sprintf("host time: setup %.4g s, job p50 %.4g s, p90 %.4g s; calibration loop p25/p50/p75 %.3g/%.3g/%.3g ms over %d loops (reference %v)",
			quantile(hostSetups, 0.5), quantile(hostLat, 0.5), quantile(hostLat, 0.9),
			quantile(cal.raw, 0.25), quantile(cal.raw, 0.5), quantile(cal.raw, 0.75), len(cal.raw), refLoop))
	return o, nil
}

// managerJobs is the fixed job count of the traced run's Manager phase, so
// its cache hit ratios repeat exactly for a seed.
const managerJobs = 4

// measureLayers is the traced run. It reads queue wait and cache hit ratios
// from a Manager's public snapshots over managerJobs jobs, times cold golden
// capture and library generation, then replays the workload's pipeline for
// cfg.seconds. Each iteration replays one job with spans on and once with
// them off, alternating which goes first (the median ratio of the two is the
// tracing overhead), and probes the same job's screening and resume work.
func measureLayers(ctx context.Context, w workload, cfg runConfig) (*outcome, error) {
	o := &outcome{correct: true}
	ck := newChecker(w.kinds)
	rec := newRecorder()
	spec := func(i int) campaign.Spec { return w.spec(cfg.seed, cfg.scale, i) }

	sys := newSystem(w)
	for i := 0; i < managerJobs; i++ {
		out, err := sys.run(ctx, spec(i))
		o.attempted++
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("manager job %d: %w", i, err)
		}
		rec.trace("manager", i%w.kinds).count("campaign.queue_wait_ms", float64(out.queue)/1e6)
	}
	m := sys.metrics()
	sys.close()
	t := rec.trace("manager-cache", 0)
	t.count("campaign.golden_hit_ratio", ratio(float64(m.GoldenCacheHits), float64(m.GoldenCacheHits+m.GoldenCacheMisses)))
	t.count("campaign.library_hit_ratio", ratio(float64(m.LibraryCacheHits), float64(m.LibraryCacheHits+m.LibraryCacheMisses)))

	// Cold set-up, repeated: golden capture and library generation on an
	// empty harness. The last harness serves the loop.
	var h *harness
	for r := 0; r < cfg.starts; r++ {
		if h != nil {
			h.close()
		}
		h = newHarness(w)
		for k := 0; k < w.kinds; k++ {
			if err := h.prime(rec.trace("setup", k), spec(k)); err != nil {
				h.close()
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
	}
	defer h.close()
	for k := 0; k < w.kinds; k++ { // warm every path untraced; check spec k
		out, err := h.replay(ctx, nil, spec(k))
		o.attempted++
		if err == nil {
			err = ck.record(k, jobOut{res: out.res, width: out.env.width})
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	pairs := make([][]float64, w.kinds) // traced / untraced replay time, per iteration
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	iters := 0
	for i := w.kinds; iters < max(cfg.minJobs, w.kinds) || time.Now().Before(deadline); i++ {
		k := i % w.kinds
		tracedFirst := (iters/w.kinds)%2 == 0
		iters++
		var traced *replayOut
		var on, off float64
		for pass := 0; pass < 2; pass++ {
			var t *tracer
			if (pass == 0) == tracedFirst {
				t = rec.trace("job", k)
			}
			t0 := time.Now()
			out, err := h.replay(ctx, t, spec(i))
			d := time.Since(t0).Seconds()
			o.attempted++
			if err != nil {
				o.failed++
				o.fail("%s replay %d: %v", w.name, i, err)
				continue
			}
			if t != nil {
				on, traced = d, out
			} else {
				off = d
			}
			if !w.freshLibs {
				if err := ck.record(k, jobOut{res: out.res, width: out.env.width}); err != nil {
					return nil, err
				}
			}
		}
		if traced == nil {
			continue
		}
		if off > 0 {
			pairs[k] = append(pairs[k], on/off)
		}
		crashed, err := h.cores.probe(rec.trace("probe", k), traced.env, traced.plan, traced.hash, traced.lib)
		o.attempted++
		if err == nil {
			err = checkCrashed(crashed, traced.res)
		}
		if err != nil {
			o.failed++
			o.fail("%s probe %d: %v", w.name, i, err)
		}
		// The probe allocates a channel per defect; collect its garbage here
		// rather than inside the next timed replay.
		runtime.GC()
	}

	for k := 0; k < w.kinds; k++ {
		or, err := oracle(ctx, spec(k))
		o.attempted++
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		ck.verify(o, w, k, or, true)
	}

	if !w.freshLibs {
		if err := rec.countsRepeat(); err != nil {
			o.fail("%s: %v", w.name, err)
		}
	}
	rec.derive()
	o.metrics = rec.layerValues(perLayer)
	var overhead []float64
	for _, p := range pairs {
		if len(p) > 0 {
			overhead = append(overhead, 100*(quantile(p, 0.5)-1))
		}
	}
	o.metrics["bench.trace_overhead_pct"] = mean(overhead)
	o.notes = append(o.notes, fmt.Sprintf("%d iterations of traced replay, untraced replay and probe; %d traces, %d spans",
		iters, len(rec.traces), len(rec.spans)))
	if cfg.spans != "" {
		if err := rec.writeNDJSON(cfg.spans, w.name); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
