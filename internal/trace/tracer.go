package trace

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"
)

// Options configures a Tracer. The zero value is usable: sampling off,
// default flight ring, info-level events to no writer (flight-only).
type Options struct {
	// SampleEvery samples one in N records for span tracing (0 disables
	// span sampling; events and the flight ring still work).
	SampleEvery int
	// Seed governs the sampler's deterministic trace-ID sequence.
	Seed uint64
	// MaxTraces bounds the span recorder (DefaultMaxTraces when 0).
	MaxTraces int
	// FlightEvents is the flight ring capacity (DefaultFlightEvents when 0).
	FlightEvents int
	// LogOutput receives structured events as slog text lines, and the
	// anomaly flight dumps (at most one per 5s); nil keeps events
	// flight-only and records trips without dumping.
	LogOutput io.Writer
	// LogLevel gates the text output (the flight ring keeps all levels).
	LogLevel slog.Level
}

// Tracer bundles the three causal-observability pieces — sampler,
// span recorder, and event log + flight recorder — behind one handle the
// pipeline threads from the simulated NIC to the store. Every method is
// safe on a nil *Tracer and unsampled contexts short-circuit, so wiring
// tracing through a stage costs one branch when disabled, matching the
// internal/telemetry contract.
type Tracer struct {
	sampler *Sampler
	rec     *Recorder
	flight  *Flight
	log     *slog.Logger
}

// New builds a Tracer from opts.
func New(opts Options) *Tracer {
	flight := NewFlight(opts.FlightEvents, opts.LogOutput, 0)
	return &Tracer{
		sampler: NewSampler(opts.SampleEvery, opts.Seed),
		rec:     NewRecorder(opts.MaxTraces),
		flight:  flight,
		log:     newEventLogger(opts.LogOutput, opts.LogLevel, flight),
	}
}

// Sample draws the next record's context from the deterministic sampler:
// a sampled Context for one in SampleEvery records, zero otherwise.
func (t *Tracer) Sample() Context {
	if t == nil {
		return Context{}
	}
	return t.sampler.Next()
}

// Sampling reports whether Sample can ever return a sampled context: false
// on a nil tracer and at SampleEvery 0. A per-record loop that only samples
// tests it once per batch instead of calling Sample for every record.
func (t *Tracer) Sampling() bool {
	return t != nil && t.sampler.every != 0
}

// Record stores one completed span for ctx and mirrors it into the flight
// ring. A nil tracer or unsampled context is a single-branch no-op.
func (t *Tracer) Record(ctx Context, stage string, start time.Time, d time.Duration, note string) {
	if t == nil || !ctx.Sampled() {
		return
	}
	t.rec.Record(ctx, stage, start, d, note)
	msg := stage + " " + d.String()
	if note != "" {
		msg += " " + note
	}
	t.flight.Add(Event{Time: start, TraceID: ctx.TraceID, Component: stage, Kind: "span", Msg: msg})
}

// Logger returns the component-scoped structured event logger. On a nil
// tracer it returns a shared discard logger, so call sites never need a
// guard.
func (t *Tracer) Logger(component string) *slog.Logger {
	if t == nil {
		return discardLogger
	}
	return t.log.With(slog.String(componentKey, component))
}

// Eventf logs one formatted event for component at level, attaching ctx's
// trace ID when sampled so the event cross-links with /tracez.
func (t *Tracer) Eventf(ctx Context, component string, level slog.Level, format string, args ...any) {
	if t == nil {
		return
	}
	t.Logger(component).Log(context.Background(), level, fmt.Sprintf(format, args...), ctx.Attrs()...)
}

// Trip records an anomaly — protocol error, window flush lag, store fsync
// failure — and dumps the flight ring's pre-fault window (rate-limited).
func (t *Tracer) Trip(component, reason string) {
	if t == nil {
		return
	}
	t.flight.Trip(component, reason)
}

// Recorder exposes the span store (for /tracez); nil on a nil tracer.
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Flight exposes the flight ring (for /flightz and SIGQUIT dumps); nil on
// a nil tracer.
func (t *Tracer) Flight() *Flight {
	if t == nil {
		return nil
	}
	return t.flight
}

// DumpFlight writes the flight ring as text — the SIGQUIT handler's view.
func (t *Tracer) DumpFlight(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.flight.Dump(w)
}
