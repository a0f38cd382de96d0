package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"
)

// AlertState is the lifecycle position of one objective's alert.
type AlertState int

const (
	// AlertOK: the objective is within budget on at least one window.
	AlertOK AlertState = iota
	// AlertPending: both burn-rate windows are over threshold but the
	// breach has not persisted to the next evaluation tick yet.
	AlertPending
	// AlertFiring: the breach persisted; the alert is active.
	AlertFiring
	// AlertResolved: the burn dropped back under threshold; the alert is
	// held in resolved for one fast window before returning to ok so a
	// scrape cannot miss that it fired.
	AlertResolved
)

func (s AlertState) String() string {
	switch s {
	case AlertOK:
		return "ok"
	case AlertPending:
		return "pending"
	case AlertFiring:
		return "firing"
	default:
		return "resolved"
	}
}

// Burn-rate thresholds of every objective, following the multi-window
// multi-burn-rate recipe: the fast window catches a budget-destroying
// spike, the slow window confirms it is sustained rather than a blip.
const (
	DefaultFastBurn = 14.4
	DefaultSlowBurn = 6.0
)

// Burn-rate windows of every objective. Both are short by dashboard
// standards because xtalkd campaigns live on minute, not month, horizons.
const (
	DefaultFastWindow = 5 * time.Minute
	DefaultSlowWindow = 30 * time.Minute
)

// Objective is one declarative SLO: a Source reporting cumulative
// (total, bad) event counts and a Budget (allowed bad/total ratio). An
// alert needs both burn-rate windows over their thresholds (the Default*
// constants above), and fires one evaluation tick after it goes pending.
type Objective struct {
	Name        string
	Description string
	// Source returns cumulative totals since process start. Both values
	// must be monotonically non-decreasing; the evaluator differentiates
	// them over its windows.
	Source func() (total, bad float64)
	// Budget is the allowed bad/total ratio (e.g. 0.01 = 1% of events may
	// violate the objective). Burn rate = (windowed bad ratio) / Budget.
	Budget float64
}

type sloSample struct {
	t          time.Time
	total, bad float64
}

type objectiveState struct {
	obj      Objective
	samples  []sloSample
	state    AlertState
	since    time.Time
	fastBurn float64
	slowBurn float64
}

// Evaluator evaluates registered objectives as multi-window burn rates and
// drives each objective's alert state machine
// (ok → pending → firing → resolved → ok). All methods are safe on a nil
// receiver so disabled telemetry costs nothing.
type Evaluator struct {
	mu     sync.Mutex
	reg    *Registry
	rec    *Recorder
	objs   []*objectiveState
	byName map[string]*objectiveState

	evals       *Counter
	transitions *Counter
}

// NewEvaluator builds an evaluator registering its bookkeeping families in
// reg and recording alert transitions into rec (either may be nil).
func NewEvaluator(reg *Registry, rec *Recorder) *Evaluator {
	e := &Evaluator{
		reg:    reg,
		rec:    rec,
		byName: make(map[string]*objectiveState),
	}
	if reg != nil {
		e.evals = reg.Counter("xtalkd_slo_evaluations_total",
			"SLO evaluation ticks performed.")
		e.transitions = reg.Counter("xtalkd_slo_transitions_total",
			"Alert state-machine transitions across all objectives.")
	}
	return e
}

// Add registers (or replaces, by name) one objective and its burn-rate and
// state gauges. Nil-safe.
func (e *Evaluator) Add(obj Objective) {
	if e == nil || obj.Name == "" || obj.Source == nil || obj.Budget <= 0 {
		return
	}
	e.mu.Lock()
	st, existed := e.byName[obj.Name]
	if existed {
		st.obj = obj
	} else {
		st = &objectiveState{obj: obj}
		e.byName[obj.Name] = st
		e.objs = append(e.objs, st)
	}
	e.mu.Unlock()
	if existed || e.reg == nil {
		return
	}
	name := obj.Name
	e.reg.GaugeFunc("xtalkd_slo_burn_rate",
		"Current burn rate per objective and window (1 = exactly on budget).",
		func() float64 { return e.burn(name, false) },
		Label{"objective", name}, Label{"window", "fast"})
	e.reg.GaugeFunc("xtalkd_slo_burn_rate",
		"Current burn rate per objective and window (1 = exactly on budget).",
		func() float64 { return e.burn(name, true) },
		Label{"objective", name}, Label{"window", "slow"})
	e.reg.GaugeFunc("xtalkd_slo_alert_state",
		"Alert state per objective: 0 ok, 1 pending, 2 firing, 3 resolved.",
		func() float64 { return float64(e.stateOf(name)) },
		Label{"objective", name})
}

func (e *Evaluator) burn(name string, slow bool) float64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.byName[name]
	if !ok {
		return 0
	}
	if slow {
		return st.slowBurn
	}
	return st.fastBurn
}

func (e *Evaluator) stateOf(name string) AlertState {
	if e == nil {
		return AlertOK
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.byName[name]; ok {
		return st.state
	}
	return AlertOK
}

// windowBurn computes the burn rate over the window ending at the newest
// sample: the bad/total ratio of events inside the window divided by the
// budget. Returns 0 when the window holds fewer than two samples or no
// events.
func windowBurn(samples []sloSample, window time.Duration, budget float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	cur := samples[len(samples)-1]
	cutoff := cur.t.Add(-window)
	// Oldest sample still inside the window (samples are time-ordered).
	first := cur
	for i := len(samples) - 2; i >= 0; i-- {
		if samples[i].t.Before(cutoff) {
			break
		}
		first = samples[i]
	}
	dTotal := cur.total - first.total
	dBad := cur.bad - first.bad
	if dTotal <= 0 || dBad <= 0 {
		return 0
	}
	return (dBad / dTotal) / budget
}

// Tick samples every objective's source at the given time, recomputes both
// window burn rates, and advances each alert state machine by at most one
// transition. The explicit clock keeps the machine deterministic in tests.
func (e *Evaluator) Tick(now time.Time) {
	if e == nil {
		return
	}
	type transition struct {
		name     string
		from, to AlertState
	}
	var fired []transition
	e.mu.Lock()
	for _, st := range e.objs {
		total, bad := st.obj.Source()
		st.samples = append(st.samples, sloSample{t: now, total: total, bad: bad})
		// Prune beyond the slow window, keeping one sample at or before
		// the boundary so the slow delta spans the full window.
		cutoff := now.Add(-DefaultSlowWindow)
		drop := 0
		for drop < len(st.samples)-1 && st.samples[drop+1].t.Before(cutoff) {
			drop++
		}
		if drop > 0 {
			st.samples = append([]sloSample(nil), st.samples[drop:]...)
		}
		st.fastBurn = windowBurn(st.samples, DefaultFastWindow, st.obj.Budget)
		st.slowBurn = windowBurn(st.samples, DefaultSlowWindow, st.obj.Budget)
		breach := st.fastBurn >= DefaultFastBurn && st.slowBurn >= DefaultSlowBurn

		from := st.state
		switch st.state {
		case AlertOK:
			if breach {
				st.state = AlertPending
				st.since = now
			}
		case AlertPending:
			if !breach {
				st.state = AlertOK
				st.since = now
			} else if now.After(st.since) {
				st.state = AlertFiring
				st.since = now
			}
		case AlertFiring:
			if !breach {
				st.state = AlertResolved
				st.since = now
			}
		case AlertResolved:
			if breach {
				st.state = AlertFiring
				st.since = now
			} else if now.Sub(st.since) >= DefaultFastWindow {
				st.state = AlertOK
				st.since = now
			}
		}
		if st.state != from {
			fired = append(fired, transition{name: st.obj.Name, from: from, to: st.state})
		}
	}
	e.mu.Unlock()

	if e.evals != nil {
		e.evals.Inc()
	}
	for _, tr := range fired {
		if e.transitions != nil {
			e.transitions.Inc()
		}
		if e.rec != nil {
			e.rec.Record("slo.transition",
				Label{"objective", tr.name},
				Label{"from", tr.from.String()},
				Label{"to", tr.to.String()})
		}
	}
}

// Alert is the JSON view of one objective's alert state.
type Alert struct {
	Name        string    `json:"name"`
	State       string    `json:"state"`
	Description string    `json:"description,omitempty"`
	Since       time.Time `json:"since,omitempty"`
	FastBurn    float64   `json:"fast_burn,omitempty"`
	SlowBurn    float64   `json:"slow_burn,omitempty"`
	Budget      float64   `json:"budget,omitempty"`
}

// Alerts snapshots every objective's alert in registration order. Nil-safe
// (returns nil).
func (e *Evaluator) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.objs))
	for _, st := range e.objs {
		out = append(out, Alert{
			Name:        st.obj.Name,
			State:       st.state.String(),
			Description: st.obj.Description,
			Since:       st.since,
			FastBurn:    st.fastBurn,
			SlowBurn:    st.slowBurn,
			Budget:      st.obj.Budget,
		})
	}
	return out
}

// Summary counts alerts by state ("ok", "pending", "firing", "resolved").
// Nil-safe (returns nil), so a /healthz on disabled telemetry simply omits
// the block.
func (e *Evaluator) Summary() map[string]int {
	if e == nil {
		return nil
	}
	sum := map[string]int{"ok": 0, "pending": 0, "firing": 0, "resolved": 0}
	for _, a := range e.Alerts() {
		sum[a.State]++
	}
	return sum
}

// AlertsHandler serves the alert list and summary as JSON.
func (e *Evaluator) AlertsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		alerts := e.Alerts()
		if alerts == nil {
			alerts = []Alert{}
		}
		summary := e.Summary()
		if summary == nil {
			summary = map[string]int{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Alerts  []Alert        `json:"alerts"`
			Summary map[string]int `json:"summary"`
		}{alerts, summary})
	})
}

// HistogramLatencySource adapts a latency histogram into an SLO source:
// total = observations, bad = observations above the threshold. The
// histogram counts whole buckets, so the threshold must be one of its bucket
// bounds (0.262144 s, not 0.15 s, against DurationBuckets); any other value
// panics, since CountLE would silently round it up to the next bound.
func HistogramLatencySource(h *Histogram, threshold float64) func() (float64, float64) {
	if !slices.Contains(h.bounds, threshold) {
		panic(fmt.Sprintf("obs: latency threshold %g is not a bucket bound of the histogram", threshold))
	}
	return func() (float64, float64) {
		total := h.Count()
		good := h.CountLE(threshold)
		return float64(total), float64(total - good)
	}
}
