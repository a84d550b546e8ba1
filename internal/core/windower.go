// Package core is the heart of the system: it turns the continuous
// connection-summary stream into the time series of communication graphs
// the paper's analyses consume ("we can generate a time-series of graphs",
// §1). It only produces windows: each completed window is published to
// the consumers its caller subscribes, and the analyses run there.
package core

import (
	"sort"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
)

// Windower splits a record stream into fixed windows (hours, in the paper's
// figures) and builds one communication graph per window. Records may
// arrive slightly out of order; a window closes when a record at least one
// full window newer arrives, or at Flush.
type Windower struct {
	window time.Duration
	opts   graph.BuilderOptions
	// OnComplete, when set, is called with each finished graph in window
	// order.
	OnComplete func(*graph.Graph)

	builders map[time.Time]*graph.Builder
	maxStart time.Time
	done     []*graph.Graph

	// newest is the builder of the window starting at maxStart and
	// [newestLo, newestHi) that window in Unix nanoseconds (empty when not
	// representable): the route of every record that is neither late nor
	// the first of a newer window.
	newest             *graph.Builder
	newestLo, newestHi int64
	// free holds finished builders for the next windows to reuse, tables
	// emptied and capacity kept.
	free []*graph.Builder
	late int64
}

// maxFreeBuilders bounds the recycled builders kept: the steady state has
// one window open and needs one spare; a burst of late records that opened
// many windows at once must not pin all their capacity.
const maxFreeBuilders = 2

// NewWindower returns a Windower with the given window size (default one
// hour) and builder options.
func NewWindower(window time.Duration, opts graph.BuilderOptions) *Windower {
	if window <= 0 {
		window = time.Hour
	}
	return &Windower{
		window:   window,
		opts:     opts,
		builders: make(map[time.Time]*graph.Builder),
	}
}

// Add routes one record into its window's builder.
func (w *Windower) Add(rec flowlog.Record) { w.add(&rec) }

// add is Add by pointer, for callers scanning a batch in place. The record
// is only read.
//
//vet:borrowed rec
func (w *Windower) add(rec *flowlog.Record) {
	if !rec.Valid() {
		return
	}
	if ns, ok := flowlog.UnixNanos(rec.Time); ok && ns >= w.newestLo && ns < w.newestHi {
		w.newest.AddValid(rec)
		return
	}
	start := rec.Time.Truncate(w.window)
	if start.Before(w.maxStart) {
		w.late++
	} else if start.After(w.maxStart) {
		// Close the older windows before opening this one, so the builder
		// they free is the one it reuses.
		w.maxStart = start
		w.emit(w.closeBefore(start))
	}
	b, ok := w.builders[start]
	if !ok {
		if n := len(w.free); n > 0 {
			b, w.free = w.free[n-1], w.free[:n-1]
		} else {
			b = graph.NewBuilder(w.opts)
		}
		w.builders[start] = b
	}
	b.AddValid(rec)
	if start.Equal(w.maxStart) {
		w.newest = b
		w.newestLo, w.newestHi = flowlog.NanoSpan(start, w.window)
	}
}

// closeBefore finishes every window strictly older than cutoff and returns
// the completed graphs in window order.
func (w *Windower) closeBefore(cutoff time.Time) []*graph.Graph {
	var starts []time.Time
	for s := range w.builders {
		if s.Before(cutoff) {
			starts = append(starts, s)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Before(starts[j]) })
	closed := make([]*graph.Graph, 0, len(starts))
	for _, s := range starts {
		b := w.builders[s]
		g := b.Finish()
		// The graph covers its whole window, not just the span of the
		// records that happened to arrive.
		g.Start = s
		g.End = s.Add(w.window)
		delete(w.builders, s)
		if b == w.newest {
			w.newest, w.newestLo, w.newestHi = nil, 0, 0
		}
		if len(w.free) < maxFreeBuilders {
			w.free = append(w.free, b)
		}
		closed = append(closed, g)
	}
	return closed
}

// emit hands completed graphs to OnComplete, or retains them for Flush when
// no hook is set. A hook consumer owns the graphs; retaining them here too
// would hold every window in memory twice for the life of the process.
func (w *Windower) emit(closed []*graph.Graph) {
	for _, g := range closed {
		if w.OnComplete != nil {
			w.OnComplete(g)
		} else {
			w.done = append(w.done, g)
		}
	}
}

// CloseUpTo finishes every window strictly older than cutoff, regardless of
// what record times have been seen, delivering the graphs as usual (to
// OnComplete, or to the next Flush). The sharded engine uses this to force
// all shards to close a window once any shard has advanced past it.
func (w *Windower) CloseUpTo(cutoff time.Time) {
	w.emit(w.closeBefore(cutoff))
}

// MaxStart returns the start of the newest window any record has touched.
func (w *Windower) MaxStart() time.Time { return w.maxStart }

// Late returns how many records arrived for a window older than the newest
// one the stream had already reached. Such a record still counts: it folds
// into its window if that is still open, and otherwise opens a second graph
// for the same window start.
func (w *Windower) Late() int64 { return w.late }

// Flush closes all open windows and returns the completed graphs not yet
// consumed, in window order, draining them from the Windower: a second
// Flush with no intervening records returns nothing, and graphs delivered
// through OnComplete are never retained here. The Windower can keep
// accepting records afterwards.
func (w *Windower) Flush() []*graph.Graph {
	w.emit(w.closeBefore(w.maxStart.Add(w.window)))
	out := w.done
	w.done = nil
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Pending returns the number of still-open windows.
func (w *Windower) Pending() int { return len(w.builders) }
