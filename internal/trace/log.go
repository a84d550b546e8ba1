package trace

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// The structured event log: a log/slog pipeline whose handler mirrors
// every accepted record into the flight ring before handing it to the
// base (text) handler. Events carry the component that emitted them and,
// when the event concerns a sampled record, its trace ID — which is what
// cross-links the event log with the /tracez span view.

// traceIDKey is the attribute key carrying a Context's trace ID on log
// records; the flight handler lifts it into Event.TraceID.
const traceIDKey = "trace_id"

// componentKey scopes every event to the pipeline stage that emitted it.
const componentKey = "component"

// flightHandler tees records into the flight ring, then delegates.
// slog.Handler.Handle returns an error and dropping it would hide a dead
// log sink, so Handle propagates the base handler's result (enforced by
// cloudgraph-vet's errdrop).
//
// The flight ring accepts every level — a post-hoc fault view wants the
// debug detail the live log suppresses — so Enabled is always true and the
// base handler's own level gate is applied before delegating.
type flightHandler struct {
	base      slog.Handler
	flight    *Flight
	component string
	traceID   uint64 // pre-bound by WithAttrs, 0 when unbound
}

func (h *flightHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *flightHandler) Handle(ctx context.Context, r slog.Record) error {
	ev := Event{
		Time:      r.Time,
		Component: h.component,
		Kind:      "event",
		TraceID:   h.traceID,
		Msg:       r.Level.String() + " " + r.Message,
	}
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case traceIDKey:
			if id, ok := a.Value.Any().(uint64); ok {
				ev.TraceID = id
			}
		case componentKey:
			ev.Component = a.Value.String()
		default:
			ev.Msg += " " + a.Key + "=" + a.Value.String()
		}
		return true
	})
	h.flight.Add(ev)
	if !h.base.Enabled(ctx, r.Level) {
		return nil
	}
	return h.base.Handle(ctx, r)
}

func (h *flightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	for _, a := range attrs {
		switch a.Key {
		case componentKey:
			nh.component = a.Value.String()
		case traceIDKey:
			if id, ok := a.Value.Any().(uint64); ok {
				nh.traceID = id
			}
		}
	}
	nh.base = h.base.WithAttrs(attrs)
	return &nh
}

func (h *flightHandler) WithGroup(name string) slog.Handler {
	nh := *h
	nh.base = h.base.WithGroup(name)
	return &nh
}

// discardHandler drops everything; it backs the logger a nil Tracer hands
// out so callers never need a nil check before logging.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

var discardLogger = slog.New(discardHandler{})

// newEventLogger builds the base event pipeline: a leveled text handler on
// w wrapped by the flight tee. A nil w keeps the flight mirror but writes
// no text — the daemon's "-log-level off"-style quiet mode.
func newEventLogger(w io.Writer, level slog.Level, flight *Flight) *slog.Logger {
	var base slog.Handler
	if w != nil {
		base = slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})
	} else {
		base = discardHandler{}
	}
	return slog.New(&flightHandler{base: base, flight: flight})
}

// Attrs renders a Context as slog attributes, attaching the trace ID so
// the event cross-links with the /tracez span view. Unsampled contexts
// contribute nothing.
func (c Context) Attrs() []any {
	if !c.Sampled() {
		return nil
	}
	return []any{slog.Any(traceIDKey, c.TraceID), slog.String("trace_hex", fmt.Sprintf("%016x", c.TraceID))}
}
