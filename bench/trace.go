package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The harness's own spans. They are recorded around calls into each module's
// public functions (the program itself is not instrumented), kept in memory,
// and written as NDJSON when the run ends. A trace is one replayed job, probe
// pass, cold set-up or manager job; its per-layer numbers are span self
// times plus counters the harness reads from public snapshots.

// spanRec is one finished span. Parent 0 marks a trace's root.
type spanRec struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// traceRec is one trace: its class ("job", "probe", "setup", "manager"), the
// spec kind it ran (index into the workload's alternating specs), and the
// counters recorded beside its spans.
type traceRec struct {
	ID     int                `json:"trace"`
	Label  string             `json:"label"`
	Kind   int                `json:"kind"`
	Values map[string]float64 `json:"values,omitempty"`
}

// recorder collects spans and traces. Spans may be added from several
// goroutines at once (fleet shard handlers, campaign workers).
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	nextID int
	spans  []spanRec
	traces []*traceRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// trace opens a new trace and returns the tracer that records into it.
func (r *recorder) trace(label string, kind int) *tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := &traceRec{ID: len(r.traces) + 1, Label: label, Kind: kind, Values: map[string]float64{}}
	r.traces = append(r.traces, tr)
	return &tracer{rec: r, tr: tr}
}

func (r *recorder) newID() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

func (r *recorder) add(s spanRec) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// tracer records into one trace. A nil tracer records nothing, so every
// pipeline runs the same code with spans on and off.
type tracer struct {
	rec *recorder
	tr  *traceRec
}

// span runs fn inside a span named name under parent (0 for a root) and
// passes fn the span's ID for its children.
func (t *tracer) span(parent int, name string, fn func(id int) error) error {
	if t == nil {
		return fn(0)
	}
	id := t.rec.newID()
	start := time.Now()
	err := fn(id)
	t.rec.add(spanRec{Trace: t.tr.ID, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.rec.t0)), End: int64(time.Since(t.rec.t0))})
	return err
}

// interval records an already-finished span, for work the harness observed
// but did not call itself (screening inside a campaign, a shard served on a
// worker).
func (t *tracer) interval(parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.rec.add(spanRec{Trace: t.tr.ID, ID: t.rec.newID(), Parent: parent, Name: name,
		Start: int64(start.Sub(t.rec.t0)), End: int64(end.Sub(t.rec.t0))})
}

// count adds v to the trace's counter name.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.rec.mu.Lock()
	t.tr.Values[name] += v
	t.rec.mu.Unlock()
}

// countsRepeat checks that every job and probe trace of one spec kind
// recorded the same counts: the work a job does is a function of its spec,
// so a count that moves between identical jobs is a determinism bug.
func (r *recorder) countsRepeat() error {
	first := map[string]*traceRec{}
	for _, t := range r.traces {
		if t.Label != "job" && t.Label != "probe" {
			continue
		}
		key := fmt.Sprintf("%s/%d", t.Label, t.Kind)
		f, ok := first[key]
		if !ok {
			first[key] = t
			continue
		}
		for _, d := range perLayer {
			if d.unit == "count" && t.Values[d.name] != f.Values[d.name] {
				return fmt.Errorf("%s reads %v in trace %d but %v in trace %d of the same spec",
					d.name, f.Values[d.name], f.ID, t.Values[d.name], t.ID)
			}
		}
	}
	return nil
}

// derive turns each trace's accumulated sums into its ratios.
func (r *recorder) derive() {
	for _, t := range r.traces {
		v := t.Values
		if n := v["sim.memo_lookups"]; n > 0 {
			v["sim.memo_hit_ratio"] = v["sim.memo_hits"] / n
		}
		if c := v["sim.capacity_ns"]; c > 0 {
			v["sim.worker_util"] = v["sim.busy_ns"] / c
		}
	}
}

// selfTimes returns each trace's per-name sum of span self time in
// milliseconds: a span's duration minus the union of its children's
// intervals (children may overlap, e.g. shards served concurrently).
func (r *recorder) selfTimes() map[int]map[string]float64 {
	self := r.selfNanos()
	out := map[int]map[string]float64{}
	for i, s := range r.spans {
		if out[s.Trace] == nil {
			out[s.Trace] = map[string]float64{}
		}
		out[s.Trace][s.Name] += float64(self[i]) / 1e6
	}
	return out
}

// selfNanos returns each span's self time, indexed like r.spans.
func (r *recorder) selfNanos() []int64 {
	kids := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// layerValues reduces the traces to one value per per-layer metric. A metric
// named X_ms with no counter of that name is the self time of spans named X.
// Only traces of a class in which the metric occurs contribute; a trace of
// such a class that lacks it contributes 0. Counts take the first trace of
// each spec kind (they repeat exactly for a given seed); everything else the
// median over that kind's traces. Kinds are then averaged, so workloads that
// alternate two specs do not report the gap between two clusters.
func (r *recorder) layerValues(defs []metricDef) map[string]float64 {
	self := r.selfTimes()
	lookup := func(tr *traceRec, name string) (float64, bool) {
		if v, ok := tr.Values[name]; ok {
			return v, true
		}
		if base, ok := strings.CutSuffix(name, "_ms"); ok {
			v, ok := self[tr.ID][base]
			return v, ok
		}
		return 0, false
	}
	out := map[string]float64{}
	for _, d := range defs {
		labels := map[string]bool{}
		for _, tr := range r.traces {
			if _, ok := lookup(tr, d.name); ok {
				labels[tr.Label] = true
			}
		}
		perKind := map[int][]float64{}
		for _, tr := range r.traces {
			if labels[tr.Label] {
				v, _ := lookup(tr, d.name)
				perKind[tr.Kind] = append(perKind[tr.Kind], v)
			}
		}
		kinds := make([]int, 0, len(perKind))
		for k := range perKind {
			kinds = append(kinds, k)
		}
		sort.Ints(kinds)
		var vals []float64
		for _, k := range kinds {
			xs := perKind[k]
			if d.unit == "count" {
				vals = append(vals, xs[0])
			} else {
				vals = append(vals, quantile(xs, 0.5))
			}
		}
		out[d.name] = mean(vals)
	}
	return out
}

// writeNDJSON appends the spans (with their self time) and the traces'
// counters to path, each line tagged with the workload.
func (r *recorder) writeNDJSON(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type spanLine struct {
		Workload string `json:"workload"`
		spanRec
		Self int64 `json:"self_ns"`
	}
	type traceLine struct {
		Workload string `json:"workload"`
		*traceRec
	}
	for _, t := range r.traces {
		if err := enc.Encode(traceLine{workload, t}); err != nil {
			f.Close()
			return err
		}
	}
	self := r.selfNanos()
	for i, s := range r.spans {
		if err := enc.Encode(spanLine{workload, s, self[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
