// Package timeline maintains a versioned in-memory timeline of completed
// window graphs: bounded retention of the fine-resolution windows,
// multi-resolution roll-ups folded on the fly in CSR form
// (graph.FoldRollup), and
// copy-on-write snapshots identified by epoch so concurrent readers get
// repeatable queries while the stream keeps advancing.
//
// The timeline sits behind the engine's consumer bus (core.ConsumerSpec):
// each completed window appended under its bus epoch produces one new
// Snapshot. Window graphs are never mutated after they are appended —
// roll-ups merge members into a fresh graph — so a Snapshot is just an
// immutable view: copying slice headers is all the copy-on-write there is.
package timeline

import (
	"fmt"
	"sync"
	"time"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
)

// Config parameterizes a Timeline.
type Config struct {
	// Retention bounds how many fine-resolution windows are kept
	// (default 96; <0 keeps everything).
	Retention int
	// RollupRetention bounds how many sealed roll-up graphs are kept
	// (default 48; <0 keeps everything).
	RollupRetention int
	// Rollup is the coarse resolution: windows whose starts fall in the
	// same Rollup-sized bucket merge into one roll-up graph, sealed when
	// the stream moves to the next bucket (default one hour; 0 uses the
	// default, <0 disables roll-ups).
	Rollup time.Duration
	// History bounds how many past snapshots stay addressable by epoch
	// (default Retention). Queries for evicted epochs miss.
	History int
	// Telemetry, when set, receives the timeline's metrics: snapshots and
	// graphs held, approximate bytes retained, and roll-up seal latency.
	Telemetry *telemetry.Registry
	// Trace, when set, records a "timeline.rollup" span against every
	// sampled record whose window folded into a sealed roll-up, at the
	// seal, lasting the bucket's accumulated fold time.
	Trace *trace.Tracer
}

func (c *Config) defaults() {
	if c.Retention == 0 {
		c.Retention = 96
	}
	if c.RollupRetention == 0 {
		c.RollupRetention = 48
	}
	if c.Rollup == 0 {
		c.Rollup = time.Hour
	}
	if c.History == 0 {
		c.History = c.Retention
	}
}

// Snapshot is one immutable version of the timeline, produced by one
// window append. Readers may hold it as long as they like; the graphs it
// references are never mutated.
type Snapshot struct {
	// Epoch is the bus epoch of the window whose append produced this
	// snapshot; queries quoting it are repeatable until eviction.
	Epoch uint64
	// Window is that window graph — the finest-resolution latest view.
	Window *graph.Graph
	// Windows are the retained fine-resolution windows, oldest first;
	// the last entry is Window.
	Windows []*graph.Graph
	// Rollups are the sealed coarse-resolution graphs, oldest first. The
	// in-progress bucket is excluded: it is still being merged into and
	// would not be safe to read.
	Rollups []*graph.Graph
}

// Timeline is the versioned store. Append is single-writer (the bus
// delivers windows on one goroutine); every read API is safe under
// concurrent Appends.
type Timeline struct {
	cfg Config

	mu      sync.RWMutex
	windows []*graph.Graph
	rollups []*graph.Graph
	bucket  *graph.Graph  // in-progress roll-up accumulator, never exposed
	fold    time.Duration // time spent folding members into bucket
	history []*Snapshot   // bounded, oldest first
	latest  *Snapshot

	tracer      *trace.Tracer
	telRollup   *telemetry.Histogram
	telSeals    *telemetry.Counter
	telEvicted  *telemetry.Counter
	approxBytes int64
}

// New returns an empty timeline.
func New(cfg Config) *Timeline {
	cfg.defaults()
	t := &Timeline{cfg: cfg, tracer: cfg.Trace}
	t.instrument(cfg.Telemetry)
	return t
}

func (t *Timeline) instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	t.telRollup = reg.Histogram("cloudgraph_timeline_rollup_seal_seconds",
		"time merging a roll-up bucket's member windows into its sealed graph",
		telemetry.DurBuckets)
	t.telSeals = reg.Counter("cloudgraph_timeline_rollups_sealed_total",
		"roll-up graphs sealed")
	t.telEvicted = reg.Counter("cloudgraph_timeline_snapshots_evicted_total",
		"snapshots evicted from the epoch-addressable history")
	reg.GaugeFunc("cloudgraph_timeline_snapshots_held",
		"epoch-addressable snapshots currently retained",
		func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(len(t.history))
		})
	reg.GaugeFunc("cloudgraph_timeline_windows_held",
		"fine-resolution window graphs currently retained",
		func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(len(t.windows))
		})
	reg.GaugeFunc("cloudgraph_timeline_rollups_held",
		"sealed roll-up graphs currently retained",
		func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(len(t.rollups))
		})
	reg.GaugeFunc("cloudgraph_timeline_bytes_retained",
		"approximate memory retained by timeline graphs (graph.MemBytes layout accounting)",
		func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(t.approxBytes)
		})
}

// approxGraphBytes is the bytes-retained gauge's per-graph cost: the
// graph's CSR footprint (see graph.MemBytes), edge series excluded.
func approxGraphBytes(g *graph.Graph) int64 { return g.MemBytes() }

// Append folds one completed window into the timeline under the given
// epoch and returns the resulting snapshot. Windows must arrive in epoch
// order from a single goroutine (the bus consumer contract). The window
// graph must not be mutated afterwards.
func (t *Timeline) Append(epoch uint64, g *graph.Graph) *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.windows = append(t.windows, g)
	t.approxBytes += approxGraphBytes(g)
	if t.cfg.Retention > 0 && len(t.windows) > t.cfg.Retention {
		evict := t.windows[:len(t.windows)-t.cfg.Retention]
		for _, old := range evict {
			t.approxBytes -= approxGraphBytes(old)
		}
		t.windows = append([]*graph.Graph(nil), t.windows[len(t.windows)-t.cfg.Retention:]...)
	}
	t.rollupLocked(g)

	snap := &Snapshot{
		Epoch:   epoch,
		Window:  g,
		Windows: append([]*graph.Graph(nil), t.windows...),
		Rollups: append([]*graph.Graph(nil), t.rollups...),
	}
	t.latest = snap
	t.history = append(t.history, snap)
	if t.cfg.History > 0 && len(t.history) > t.cfg.History {
		n := len(t.history) - t.cfg.History
		t.telEvicted.Add(int64(n))
		t.history = append([]*Snapshot(nil), t.history[n:]...)
	}
	return snap
}

// rollupLocked folds g into the in-progress roll-up bucket, sealing the
// previous bucket when g starts a new one. Caller holds t.mu.
func (t *Timeline) rollupLocked(g *graph.Graph) {
	if t.cfg.Rollup < 0 {
		return
	}
	if t.bucket != nil && !t.bucket.Start.Equal(graph.RollupStart(g.Start, t.cfg.Rollup)) {
		t.sealLocked()
	}
	start := time.Now()
	t.bucket = graph.FoldRollup(t.bucket, g, t.cfg.Rollup)
	t.fold += time.Since(start)
	// Carry the members' sampled-record contexts so the seal can close
	// their journeys with a "timeline.rollup" span.
	t.bucket.Traces = append(t.bucket.Traces, g.Traces...)
}

// sealLocked moves the in-progress bucket into the sealed roll-ups. The
// bucket is already in its final CSR form (FoldRollup merge-joins), so
// the seal only publishes it; the latency it reports is the bucket's
// accumulated fold time plus the seal itself. Caller holds t.mu.
func (t *Timeline) sealLocked() {
	if t.bucket == nil {
		return
	}
	start := time.Now()
	sealed, fold := t.bucket, t.fold
	t.bucket, t.fold = nil, 0
	t.rollups = append(t.rollups, sealed)
	t.approxBytes += approxGraphBytes(sealed)
	if t.cfg.RollupRetention > 0 && len(t.rollups) > t.cfg.RollupRetention {
		evict := t.rollups[:len(t.rollups)-t.cfg.RollupRetention]
		for _, old := range evict {
			t.approxBytes -= approxGraphBytes(old)
		}
		t.rollups = append([]*graph.Graph(nil), t.rollups[len(t.rollups)-t.cfg.RollupRetention:]...)
	}
	d := fold + time.Since(start)
	t.telRollup.Observe(d.Seconds())
	t.telSeals.Add(1)
	if t.tracer != nil && len(sealed.Traces) > 0 {
		note := fmt.Sprintf("rollup=%s windows=%s",
			sealed.Start.UTC().Format(time.RFC3339), t.cfg.Rollup)
		for _, tc := range sealed.Traces {
			t.tracer.Record(tc, "timeline.rollup", start, d, note)
		}
	}
}

// Seal closes the in-progress roll-up bucket — call at end of stream
// (flush) so the final partial bucket becomes readable. The next Append
// simply opens a fresh bucket.
func (t *Timeline) Seal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sealLocked()
	// Re-issue the latest snapshot's roll-up view so Latest reflects the
	// seal without inventing a new epoch.
	if t.latest != nil {
		snap := &Snapshot{
			Epoch:   t.latest.Epoch,
			Window:  t.latest.Window,
			Windows: t.latest.Windows,
			Rollups: append([]*graph.Graph(nil), t.rollups...),
		}
		t.latest = snap
		if n := len(t.history); n > 0 && t.history[n-1].Epoch == snap.Epoch {
			t.history[n-1] = snap
		}
	}
}

// Latest returns the most recent snapshot, or nil before the first append.
func (t *Timeline) Latest() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.latest
}

// At returns the snapshot for the given epoch, or nil if that epoch never
// produced one or has been evicted from history.
func (t *Timeline) At(epoch uint64) *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// history is sorted by epoch (single-writer, in-order appends);
	// binary search it.
	lo, hi := 0, len(t.history)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.history[mid].Epoch < epoch {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.history) && t.history[lo].Epoch == epoch {
		return t.history[lo]
	}
	return nil
}

// EpochAt resolves a wall-clock instant to the epoch of the retained
// window whose [Start, End) covers it, or false when no retained window
// does (evicted epochs resolve through the durable history instead).
func (t *Timeline) EpochAt(at time.Time) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := len(t.history) - 1; i >= 0; i-- {
		s := t.history[i]
		if s.Window == nil {
			continue
		}
		if !s.Window.Start.After(at) && s.Window.End.After(at) {
			return s.Epoch, true
		}
	}
	return 0, false
}

// Epochs returns the addressable epoch range [oldest, newest], or (0, 0)
// when the history is empty.
func (t *Timeline) Epochs() (oldest, newest uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.history) == 0 {
		return 0, 0
	}
	return t.history[0].Epoch, t.history[len(t.history)-1].Epoch
}
