// Package timeline holds the live plane's view of completed windows: the
// latest window graph, and a bounded ring of the retained windows'
// extents — epoch, start and end — that resolves wall-clock instants and
// reports the addressable epoch range.
//
// The timeline sits behind the engine's consumer bus (core.ConsumerSpec):
// each completed window is appended under its bus epoch. Window graphs are
// never mutated after they are appended, so the latest one may be read for
// as long as a caller likes. Roll-ups live in one place, the durable
// history (histstore compaction, graph.FoldRollup).
package timeline

import (
	"sync"
	"time"

	"cloudgraph/internal/graph"
)

// Config parameterizes a Timeline.
type Config struct {
	// Retention bounds how many windows' extents stay resolvable
	// (default 96).
	Retention int
}

// extent is one retained window's place on the epoch and time axes.
type extent struct {
	epoch      uint64
	start, end time.Time
}

// Timeline is the live window index. Append is single-writer (the bus
// delivers windows on one goroutine); every read API is safe under
// concurrent Appends.
type Timeline struct {
	retention int

	mu     sync.RWMutex
	latest *graph.Graph
	// ring holds the retained extents; once it is full, head is the
	// oldest and the next Append overwrites it.
	ring []extent
	head int
}

// New returns an empty timeline.
func New(cfg Config) *Timeline {
	if cfg.Retention <= 0 {
		cfg.Retention = 96
	}
	return &Timeline{retention: cfg.Retention}
}

// Append records one completed window under the given epoch. Windows must
// arrive in epoch order from a single goroutine (the bus consumer
// contract). The window graph must not be mutated afterwards.
func (t *Timeline) Append(epoch uint64, g *graph.Graph) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.latest = g
	e := extent{epoch: epoch, start: g.Start, end: g.End}
	if len(t.ring) < t.retention {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.head] = e
	t.head = (t.head + 1) % len(t.ring)
}

// at returns the i-th oldest retained extent. Caller holds t.mu.
func (t *Timeline) at(i int) extent { return t.ring[(t.head+i)%len(t.ring)] }

// Latest returns the most recent window, or nil before the first append.
func (t *Timeline) Latest() *graph.Graph {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.latest
}

// Len reports how many windows the timeline retains.
func (t *Timeline) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.ring)
}

// EpochAt resolves a wall-clock instant to the epoch of the retained
// window whose [Start, End) covers it, or false when no retained window
// does (evicted epochs resolve through the durable history instead).
func (t *Timeline) EpochAt(at time.Time) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := len(t.ring) - 1; i >= 0; i-- {
		e := t.at(i)
		if !e.start.After(at) && e.end.After(at) {
			return e.epoch, true
		}
	}
	return 0, false
}

// Epochs returns the retained epoch range [oldest, newest], or (0, 0)
// before the first append.
func (t *Timeline) Epochs() (oldest, newest uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.ring) == 0 {
		return 0, 0
	}
	return t.at(0).epoch, t.at(len(t.ring) - 1).epoch
}
