package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric label or span attribute: a key/value pair.
type Label struct {
	Key   string
	Value string
}

// Registry owns a process's metric families and renders them as Prometheus
// text exposition. All metric types are safe for concurrent use; scrapes
// may race with updates and observe any interleaving (each sample is
// individually atomic).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one sample stream within a family (a distinct label set).
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byLbl  map[string]*series
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels renders a deterministic label string: keys sorted, values
// escaped per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// register resolves (name, labels) to its series, creating family and
// series as needed. Registration is idempotent for an identical (name,
// kind, labels) triple and panics on a kind conflict — metric names are
// static program text, so a conflict is a programming error, not input.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *series {
	lbl := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byLbl: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	s, ok := f.byLbl[lbl]
	if !ok {
		s = &series{labels: lbl}
		f.byLbl[lbl] = s
		f.series = append(f.series, s)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	}
	return s
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (which must be non-negative for exposition sanity).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil && s.fn == nil {
		s.c = &Counter{}
	}
	return s.c
}

// CounterFunc registers a counter whose value is computed at scrape time
// (e.g. an aggregate over cached runners).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil && s.fn == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counters,
// intended for latency distributions (observe seconds). Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the tail.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-added
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// CountLE returns the number of observations ≤ bound, counting whole
// buckets: bound is rounded up to the enclosing bucket bound, so callers
// with thresholds between bounds (e.g. an SLO of 150 ms against ×4 log
// buckets) get the cumulative count of the first bucket covering the
// threshold.
func (h *Histogram) CountLE(bound float64) int64 {
	i := sort.SearchFloat64s(h.bounds, bound)
	var n int64
	for j := 0; j <= i && j < len(h.counts); j++ {
		n += h.counts[j].Load()
	}
	return n
}

// ExpBuckets returns n exponentially spaced upper bounds starting at start
// and multiplying by factor — the log-scale shape latency distributions
// need.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		b[i] = v
		v *= factor
	}
	return b
}

// DurationBuckets are the standard duration buckets of this codebase:
// 1µs to ~17s in ×4 steps, covering a replay-tier defect run (tens of µs)
// through a full E5 fleet campaign shard (seconds) in 13 buckets.
func DurationBuckets() []float64 { return ExpBuckets(1e-6, 4, 13) }

// Histogram registers (or returns the existing) histogram series. bounds
// nil selects DurationBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		if bounds == nil {
			bounds = DurationBuckets()
		}
		s.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	return s.h
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Snapshot reads the registry into the exposition model. Counters and
// gauges keep their integer text as Raw, and histogram bounds their
// formatFloat text. The family and series lists are copied under the
// registry lock, so a scrape never races registration; values are read and
// GaugeFuncs called outside it.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	fams := make([]family, 0, len(r.families))
	for _, f := range r.families {
		ss := make([]*series, len(f.series))
		for i, s := range f.series {
			cp := *s
			ss[i] = &cp
		}
		fams = append(fams, family{name: f.name, help: f.help, kind: f.kind, series: ss})
	}
	r.mu.Unlock()

	snap := newSnapshot()
	for _, f := range fams {
		out := &Family{Name: f.name, Help: f.help, Kind: f.kind.String(),
			Series: make(map[string]*SeriesValue, len(f.series))}
		for _, s := range f.series {
			sv := &SeriesValue{Labels: s.labels}
			switch {
			case s.h != nil:
				sv.Hist = s.h.value()
			case s.fn != nil:
				sv.Value = s.fn()
			case s.c != nil:
				sv.Value, sv.Raw = intValue(s.c.Value())
			case s.g != nil:
				sv.Value, sv.Raw = intValue(s.g.Value())
			default:
				continue // registered, metric not yet attached
			}
			out.Series[s.labels] = sv
		}
		if len(out.Series) > 0 {
			snap.Families[f.name] = out
		}
	}
	return snap
}

func intValue(n int64) (float64, string) { return float64(n), strconv.FormatInt(n, 10) }

// value reads the histogram's buckets and sum.
func (h *Histogram) value() *HistValue {
	hv := &HistValue{Bounds: make([]string, len(h.bounds)), Counts: make([]int64, len(h.counts)), Sum: h.Sum()}
	for i, b := range h.bounds {
		hv.Bounds[i] = formatFloat(b)
	}
	for i := range h.counts {
		hv.Counts[i] = h.counts[i].Load()
	}
	return hv
}

// WritePrometheus renders the registry as Prometheus text exposition
// through its Snapshot.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.Snapshot().WritePrometheus(w) }
