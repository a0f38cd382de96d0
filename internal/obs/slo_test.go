package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sloClock drives Tick with a deterministic synthetic clock.
type sloClock struct{ now time.Time }

func newSLOClock() *sloClock {
	return &sloClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *sloClock) tick(e *Evaluator, d time.Duration) time.Time {
	c.now = c.now.Add(d)
	e.Tick(c.now)
	return c.now
}

// TestSLOStateMachine walks one objective through the full alert lifecycle
// ok → pending → firing → resolved → ok using a synthetic error source and
// clock.
func TestSLOStateMachine(t *testing.T) {
	reg := NewRegistry()
	e := NewEvaluator(reg, NewRecorder(64, nil))
	var total, bad float64
	e.Add(Objective{
		Name:        "latency",
		Description: "synthetic",
		Source:      func() (float64, float64) { return total, bad },
		Budget:      0.01,
	})
	clk := newSLOClock()

	state := func() string { return e.Alerts()[0].State }
	// Healthy traffic: plenty of events, none bad.
	total = 1000
	clk.tick(e, 10*time.Second)
	total = 2000
	clk.tick(e, 10*time.Second)
	if state() != "ok" {
		t.Fatalf("healthy state = %s, want ok", state())
	}

	// Catastrophic burn: 50%% of new events bad against a 1%% budget →
	// burn 50x on both windows → pending on the first breached tick.
	total, bad = 3000, 500
	clk.tick(e, 10*time.Second)
	if state() != "pending" {
		t.Fatalf("after breach tick state = %s, want pending", state())
	}
	// The breach persists: For=0 still demands one more tick before firing.
	total, bad = 4000, 1000
	clk.tick(e, 10*time.Second)
	if state() != "firing" {
		t.Fatalf("persisted breach state = %s, want firing", state())
	}
	a := e.Alerts()[0]
	if a.FastBurn < DefaultFastBurn || a.SlowBurn < DefaultSlowBurn {
		t.Fatalf("firing alert burn rates = %v/%v, want over %v/%v",
			a.FastBurn, a.SlowBurn, DefaultFastBurn, DefaultSlowBurn)
	}

	// Recovery: enough clean traffic that both windows drop under threshold
	// on the next evaluation.
	total += 10000
	clk.tick(e, time.Minute)
	if state() != "resolved" {
		t.Fatalf("recovered state = %s, want resolved", state())
	}
	if sum := e.Summary(); sum["resolved"] != 1 {
		t.Fatalf("summary = %v, want one resolved", sum)
	}
	// Resolved holds for one fast window (4 minutes in: still resolved),
	// then returns to ok.
	for i := 0; i < 4; i++ {
		total += 10000
		clk.tick(e, time.Minute)
	}
	if state() != "resolved" {
		t.Fatalf("state inside the hold window = %s, want resolved", state())
	}
	total += 10000
	clk.tick(e, time.Minute)
	if state() != "ok" {
		t.Fatalf("aged-out state = %s, want ok", state())
	}

	// The whole lifecycle is four transitions.
	if got := e.transitions.Value(); got != 4 {
		t.Fatalf("transitions counter = %d, want 4", got)
	}
}

// TestSLOSingleWindowBreachStaysOK proves a spike confined to the fast
// window (slow window still healthy) does not alert: both windows must burn.
func TestSLOSingleWindowBreachStaysOK(t *testing.T) {
	e := NewEvaluator(nil, nil)
	var total, bad float64
	e.Add(Objective{
		Name:   "ratio",
		Source: func() (float64, float64) { return total, bad },
		Budget: 0.01,
	})
	clk := newSLOClock()
	// A long healthy history dominates the slow window.
	for i := 0; i < 30; i++ {
		total += 10000
		clk.tick(e, time.Minute)
	}
	// A short spike: bad fraction breaches the fast burn threshold but is
	// diluted far below the slow threshold over 30 minutes.
	total, bad = total+100, bad+50
	clk.tick(e, 10*time.Second)
	if st := e.Alerts()[0].State; st != "ok" {
		t.Fatalf("fast-only breach state = %s, want ok", st)
	}
}

// TestSLOExpositionLint proves the evaluator's registered families render a
// lintable exposition with the expected series.
func TestSLOExpositionLint(t *testing.T) {
	reg := NewRegistry()
	e := NewEvaluator(reg, nil)
	e.Add(Objective{
		Name:   "latency",
		Source: func() (float64, float64) { return 100, 0 },
		Budget: 0.01,
	})
	e.Tick(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if _, err := ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("SLO exposition lint: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"xtalkd_slo_evaluations_total 1",
		`xtalkd_slo_burn_rate{objective="latency",window="fast"} 0`,
		`xtalkd_slo_burn_rate{objective="latency",window="slow"} 0`,
		`xtalkd_slo_alert_state{objective="latency"} 0`,
		"xtalkd_slo_transitions_total 0",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestSLOAlertsHandler covers the /alerts JSON shape.
func TestSLOAlertsHandler(t *testing.T) {
	e := NewEvaluator(nil, nil)
	e.Add(Objective{
		Name:   "latency",
		Source: func() (float64, float64) { return 0, 0 },
		Budget: 0.01,
	})
	rec := httptest.NewRecorder()
	e.AlertsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	body := rec.Body.String()
	for _, want := range []string{`"alerts"`, `"summary"`, `"latency"`, `"ok": 1`} {
		if !strings.Contains(body, want) {
			t.Errorf("/alerts missing %s: %s", want, body)
		}
	}

	// A nil evaluator (disabled telemetry) still serves valid empty JSON.
	var nilE *Evaluator
	rec = httptest.NewRecorder()
	nilE.AlertsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	if body := rec.Body.String(); !strings.Contains(body, `"alerts": []`) {
		t.Fatalf("nil evaluator /alerts = %s", body)
	}
}

// TestHistogramLatencySource proves the histogram adapter counts
// observations above the threshold, a bucket bound, as bad, and refuses a
// threshold between bounds.
func TestHistogramLatencySource(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("xtalkd_test_seconds", "t.", nil)
	src := HistogramLatencySource(h, 0.262144)
	h.Observe(0.01)
	h.Observe(0.2)      // inside the bound: good
	h.Observe(0.262144) // on it: good
	h.Observe(0.5)      // above: bad
	h.Observe(5.0)      // above: bad
	total, bad := src()
	if total != 5 || bad != 2 {
		t.Fatalf("source = (%v, %v), want (5, 2)", total, bad)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a 0.15 s threshold, between the 0.065536 and 0.262144 bounds, did not panic")
		}
	}()
	HistogramLatencySource(h, 0.15)
}

// TestRecorderDroppedCounter proves the ring overflow counter tracks
// overwritten events and is exported by the telemetry bundle.
func TestRecorderDroppedCounter(t *testing.T) {
	r := NewRecorder(2, nil)
	if got := r.Dropped(); got != 0 {
		t.Fatalf("fresh recorder dropped = %d", got)
	}
	for i := 0; i < 5; i++ {
		r.Record("e")
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3 (5 events into a 2-slot ring)", got)
	}

	tel := NewTelemetry()
	var buf bytes.Buffer
	tel.Reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "xtalkd_obs_events_dropped_total 0") {
		t.Fatalf("telemetry exposition missing dropped-events counter:\n%s", buf.String())
	}
}
