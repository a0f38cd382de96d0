// Package obs is the unified telemetry layer of the campaign/fleet stack:
// a typed metrics registry with a single Prometheus text exposition writer,
// lightweight tracing spans propagated across fleet HTTP hops, and a bounded
// in-memory flight recorder of structured events fed into log/slog.
//
// The package depends only on the standard library and is designed around
// the same principle the paper applies to the system under test: observe
// without perturbing. Counters and histograms are lock-free atomics, spans
// cost two monotonic clock reads and one bounded ring append, and every
// facility is nil-safe so a disabled Telemetry reduces instrumented code to
// a handful of predictable branches — the byte-identity guarantees of the
// simulation engines are never at risk because telemetry only ever reads
// timing, never results.
package obs

import (
	"io"
	"log/slog"
)

// Telemetry bundles the three pillars handed to an instrumented subsystem:
// the metrics registry, the span collector, and the flight recorder. The
// zero value is unusable; construct with NewTelemetry (everything on),
// NewTelemetryWithLogger (events mirrored to a slog.Logger), or Disabled
// (registry only, spans and events off — the baseline for overhead
// benchmarks).
type Telemetry struct {
	Reg    *Registry
	Tracer *Tracer
	Rec    *Recorder
	Log    *slog.Logger
	// SLO is the burn-rate alert evaluator. Subsystems register objectives
	// against it; nil (disabled telemetry) makes every SLO call a no-op.
	SLO *Evaluator

	enabled bool
}

// DefaultTracerCapacity bounds the span ring of a NewTelemetry tracer.
const DefaultTracerCapacity = 4096

// DefaultRecorderCapacity bounds the event ring of a NewTelemetry recorder.
const DefaultRecorderCapacity = 1024

// NewTelemetry builds a fully enabled bundle with bounded default
// capacities and a discarded log stream (services that want visible logs
// use NewTelemetryWithLogger).
func NewTelemetry() *Telemetry {
	return NewTelemetryWithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
}

// NewTelemetryWithLogger is NewTelemetry with flight-recorder events
// mirrored to the given structured logger.
func NewTelemetryWithLogger(log *slog.Logger) *Telemetry {
	t := &Telemetry{
		Reg:     NewRegistry(),
		Tracer:  NewTracer(DefaultTracerCapacity),
		Rec:     NewRecorder(DefaultRecorderCapacity, log),
		Log:     log,
		enabled: true,
	}
	t.SLO = NewEvaluator(t.Reg, t.Rec)
	rec := t.Rec
	t.Reg.CounterFunc("xtalkd_obs_events_dropped_total",
		"Flight-recorder events overwritten because the bounded ring was full.",
		func() float64 { return float64(rec.Dropped()) })
	return t
}

// Disabled builds a bundle whose registry works (counters are as cheap as
// the bare atomics they replace) but whose tracing, per-defect latency
// observation and event recording are off. Instrumented code checks
// Enabled() before paying for clock reads and span allocation.
func Disabled() *Telemetry {
	return &Telemetry{Reg: NewRegistry(), enabled: false}
}

// Enabled reports whether spans, latency histogram observations, and
// flight-recorder events should be produced.
func (t *Telemetry) Enabled() bool { return t != nil && t.enabled }

// Record appends one event to the flight recorder (a no-op when disabled).
func (t *Telemetry) Record(typ string, labels ...Label) {
	if t == nil || !t.enabled {
		return
	}
	t.Rec.Record(typ, labels...)
}
