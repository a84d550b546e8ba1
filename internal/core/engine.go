package core

import (
	"log/slog"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/ingest"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
	"cloudgraph/internal/watermark"
)

// Config parameterizes an Engine.
type Config struct {
	// Window is the graph window size. Default one hour.
	Window time.Duration
	// Facet selects node granularity for the graphs. Default FacetIP.
	Facet graph.Facet
	// Label maps addresses to services for FacetService graphs.
	Label graph.Labeler
	// Collapse configures heavy-hitter collapsing applied to each
	// completed window (Threshold 0 disables).
	Collapse graph.CollapseOptions
	// KeepSeries records per-interval time series on edges.
	KeepSeries bool
	// Shards is the width of the ingest hot path: records are hashed by
	// flow key onto Shards independent windowers, each behind its own
	// lock, so concurrent Ingest calls touching different flows proceed
	// in parallel. Completed windows merge across shards before they are
	// collapsed and published, so window semantics are identical at any
	// width. Default 1.
	Shards int
	// Consumers are the fan-out bus subscribers receiving each completed
	// window together with its epoch — the engine keeps no window history
	// of its own, so a caller that needs the windows subscribes one. See
	// WindowConsumer for the contract and Bus for the slow-consumer
	// policy.
	Consumers []ConsumerSpec
	// Telemetry, when set, receives the engine's metrics: per-shard
	// ingest counts, window merge latency, open and pending-merge window
	// gauges, and the shared ingest counters.
	// Handles are preallocated at construction and lock-free on the hot
	// path; nil disables instrumentation for the cost of a branch.
	Telemetry *telemetry.Registry
	// Trace, when set, records "core.shard" and "core.merge" spans for
	// sampled records handed to IngestTraced, attaches their contexts to
	// completed windows (graph.Graph.Traces), and trips the flight
	// recorder when a merge pass runs badly in arrears. Nil disables
	// tracing for the cost of a branch, like Telemetry.
	Trace *trace.Tracer
	// StartEpoch seeds the epoch counter: the first completed window is
	// published as StartEpoch+1. A restarting daemon passes the last
	// epoch recovered from its history store so epochs keep ascending
	// across the crash instead of restarting from 1.
	StartEpoch uint64
	// Watermarks, when set, receives the engine's epoch progress: the
	// ingested watermark (the window the stream is currently filling)
	// advances on every window-start move, and each published window's
	// seal is recorded so downstream stages can account seal-to-stage
	// freshness. Nil disables watermarking for the cost of a branch, like
	// Telemetry and Trace.
	Watermarks *watermark.Tracker
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = time.Hour
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shards > 256 {
		c.Shards = 256 // shard ids travel as one byte on the hot path
	}
}

// Engine is the streaming window producer: it folds connection summaries
// into windowed communication graphs and publishes each completed window,
// under the next epoch, on its consumer bus. It retains no windows and runs
// no analyses — the timeline, the runners and the durable history are bus
// consumers. It is safe for concurrent use; with Config.Shards > 1
// concurrent Ingest calls contend only per flow-key shard, not on one
// engine-wide lock.
type Engine struct {
	cfg   Config
	meter *ingest.Meter

	// The ingest hot path: one windower per shard, each behind its own
	// lock. A record only ever takes its shard's lock.
	shards []*engineShard

	// closeMu serializes cross-shard window closes; maxStartNS (unix
	// nanos of the newest window start seen) gates them so the steady
	// state is one atomic load per batch.
	closeMu    sync.Mutex
	maxStartNS atomic.Int64
	mergeNS    atomic.Int64

	// pendMu guards pending: per-window partial graphs produced by shard
	// windowers, keyed by window start, awaiting the cross-shard merge.
	pendMu  sync.Mutex
	pending map[int64][]*graph.Graph

	// traceMu guards winTraces: sampled-record contexts queued per window
	// start, popped by the cross-shard merge and attached to the completed
	// window. A leaf lock like pendMu — nothing is called while held.
	traceMu   sync.Mutex
	winTraces map[int64][]trace.Context
	tracer    *trace.Tracer

	// tel holds the preallocated metric handles (all nil when
	// Config.Telemetry is unset).
	tel engineMetrics

	// bus fans completed windows out to consumers; epoch numbers them.
	// onWindow (serialized by closeMu) is the only publisher and the only
	// writer of epoch.
	bus   *Bus
	epoch atomic.Uint64
}

// engineShard is one lane of the ingest hot path.
type engineShard struct {
	mu       sync.Mutex
	windower *Windower
	records  int64
	busy     time.Duration
	// late mirrors the windower's late-record count into telemetry (nil
	// when telemetry is off), advanced once per batch.
	late *telemetry.Counter
}

// add folds a batch into the shard and returns the newest window start the
// shard has seen.
func (sh *engineShard) add(recs []flowlog.Record) time.Time {
	sh.mu.Lock()
	start := time.Now()
	late := sh.windower.Late()
	for i := range recs {
		//lint:allow lockorder OnComplete here is always Engine.addPartial, which only takes the leaf lock pendMu; partials must queue before the shard lock releases so a window closes atomically per shard
		sh.windower.add(&recs[i])
	}
	sh.busy += time.Since(start)
	sh.records += int64(len(recs))
	sh.late.Add(sh.windower.Late() - late)
	m := sh.windower.MaxStart()
	sh.mu.Unlock()
	return m
}

// addFiltered folds the batch records whose shard id matches s, scanning
// the shared batch in place instead of materializing per-shard copies —
// the id buffer costs one byte per record where slicing the batch out
// costs a record copy.
func (sh *engineShard) addFiltered(recs []flowlog.Record, ids []uint8, s uint8, count int) time.Time {
	sh.mu.Lock()
	start := time.Now()
	late := sh.windower.Late()
	for i := range recs {
		if ids[i] == s {
			//lint:allow lockorder OnComplete here is always Engine.addPartial (leaf lock pendMu only); see add
			sh.windower.add(&recs[i])
		}
	}
	sh.busy += time.Since(start)
	sh.records += int64(count)
	sh.late.Add(sh.windower.Late() - late)
	m := sh.windower.MaxStart()
	sh.mu.Unlock()
	return m
}

// NewEngine returns an Engine with the given config.
func NewEngine(cfg Config) *Engine {
	cfg.defaults()
	e := &Engine{
		cfg:       cfg,
		meter:     ingest.NewMeter(),
		pending:   make(map[int64][]*graph.Graph),
		winTraces: make(map[int64][]trace.Context),
		tracer:    cfg.Trace,
	}
	e.maxStartNS.Store(math.MinInt64)
	e.epoch.Store(cfg.StartEpoch)
	opts := graph.BuilderOptions{
		Facet:      cfg.Facet,
		Label:      cfg.Label,
		KeepSeries: cfg.KeepSeries,
	}
	for i := 0; i < cfg.Shards; i++ {
		w := NewWindower(cfg.Window, opts)
		w.OnComplete = e.addPartial
		e.shards = append(e.shards, &engineShard{windower: w})
	}
	e.instrument(cfg.Telemetry)
	e.bus = newBus(cfg.Telemetry, cfg.Trace)
	for _, spec := range cfg.Consumers {
		e.bus.Subscribe(spec)
	}
	return e
}

// Bus exposes the engine's fan-out bus for introspection (consumer
// names, queue depths).
func (e *Engine) Bus() *Bus { return e.bus }

// Epoch returns the number of windows published so far; the most recent
// completed window carries this epoch.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// Close drains the consumer bus and stops its goroutines. The engine
// must not be flushed or ingested into afterwards. Idempotent.
func (e *Engine) Close() { e.bus.Close() }

// addPartial queues one shard's view of a completed window for merging.
// Called by shard windowers with that shard's lock held.
func (e *Engine) addPartial(g *graph.Graph) {
	k := g.Start.UnixNano()
	e.pendMu.Lock()
	e.pending[k] = append(e.pending[k], g)
	e.pendMu.Unlock()
}

// onWindow collapses a completed, fully merged window and publishes it on
// the consumer bus under the next epoch. Publishing never blocks (see Bus);
// consumers run on their own goroutines with no engine lock held. Epochs
// stay in window order because every caller holds e.closeMu. traces
// carries the sampled-record contexts that folded into the window; it is
// attached after the collapse so downstream consumers see it on the graph
// they actually receive.
func (e *Engine) onWindow(g *graph.Graph, traces []trace.Context) {
	if e.cfg.Collapse.Threshold > 0 || e.cfg.Collapse.Keep != nil {
		g = g.Collapse(e.cfg.Collapse)
	}
	g.Traces = traces
	e.tel.windows.Add(1)
	e.tracer.Eventf(trace.Context{}, "core", slog.LevelDebug,
		"window %s completed: %d nodes, %d edges, %d sampled traces",
		g.Start.UTC().Format(time.RFC3339), g.NumNodes(), g.NumEdges(), len(traces))
	epoch := e.epoch.Add(1)
	// Record the seal before any consumer can see the window: a stage
	// advancing past this epoch must find its seal time already in the
	// tracker's ring, or its freshness accounting would miss the window.
	e.cfg.Watermarks.Sealed(epoch, time.Now())
	e.bus.publish(epoch, g)
}

// Ingest adds a batch of records. Records are routed to shards by flow
// key (the ingest.ShardOf scheme), so both reports of an
// intra-subscription flow deduplicate in the same shard.
//
// Ingest borrows recs only for the duration of the call: shards scan the
// batch in place and copy what they keep, so the caller may reuse the
// backing array for the next batch as soon as Ingest returns. This is what
// lets servers decode the wire into one per-connection buffer with no
// per-batch allocation.
//
//vet:borrowed recs
func (e *Engine) Ingest(recs []flowlog.Record) { e.IngestTraced(recs, nil) }

// shardScratch is the pooled per-batch scratch of the sharded ingest path:
// the per-record shard ids and per-shard counts that would otherwise be two
// heap allocations per batch.
type shardScratch struct {
	ids    []uint8
	counts []int
}

var shardScratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

// IngestTraced is Ingest with out-of-band trace contexts: tcs is nil or
// parallel to recs, with the zero Context on unsampled records. Each
// sampled record gets a "core.shard" span covering the shard fold, and its
// context is queued against the record's window so the merge pass can
// continue the trace. Aggregation output is identical to Ingest — contexts
// never enter the records or the graphs' counters.
//
//vet:borrowed recs tcs
func (e *Engine) IngestTraced(recs []flowlog.Record, tcs []trace.Context) {
	if len(recs) == 0 {
		return
	}
	if e.tracer == nil || len(tcs) != len(recs) {
		tcs = nil
	}
	var traceStart time.Time
	if tcs != nil {
		traceStart = time.Now()
	}
	e.meter.Observe(len(recs))
	n := len(e.shards)
	var maxStart time.Time
	if n == 1 {
		maxStart = e.shards[0].add(recs)
		e.tel.shardRecords[0].Add(int64(len(recs)))
		e.recordShardSpans(recs, tcs, nil, traceStart)
	} else {
		// One byte of shard id per record instead of per-shard record
		// copies: each shard then scans the shared batch in place. The id
		// and count slices come from a pool — the steady state allocates
		// nothing per batch.
		sc := shardScratchPool.Get().(*shardScratch)
		if cap(sc.ids) < len(recs) {
			sc.ids = make([]uint8, len(recs))
		}
		if cap(sc.counts) < n {
			sc.counts = make([]int, n)
		}
		ids, counts := sc.ids[:len(recs)], sc.counts[:n]
		clear(counts)
		for i := range recs {
			s := ingest.ShardOfRecord(&recs[i], n)
			ids[i] = uint8(s)
			counts[s]++
		}
		for i, sh := range e.shards {
			if counts[i] == 0 {
				continue
			}
			if m := sh.addFiltered(recs, ids, uint8(i), counts[i]); m.After(maxStart) {
				maxStart = m
			}
			e.tel.shardRecords[i].Add(int64(counts[i]))
		}
		e.recordShardSpans(recs, tcs, ids, traceStart)
		shardScratchPool.Put(sc)
	}
	e.advance(maxStart)
}

// recordShardSpans emits a "core.shard" span per sampled record of the
// batch and queues the contexts against their windows for the merge pass.
// Runs after the shard folds with no engine lock held; a nil tcs is the
// single-branch no-op of the untraced path.
func (e *Engine) recordShardSpans(recs []flowlog.Record, tcs []trace.Context, ids []uint8, start time.Time) {
	if tcs == nil {
		return
	}
	d := time.Since(start)
	for i, tc := range tcs {
		if !tc.Sampled() {
			continue
		}
		shard := 0
		if ids != nil {
			shard = int(ids[i])
		}
		e.tracer.Record(tc, "core.shard", start, d, "shard="+strconv.Itoa(shard))
		if !recs[i].Valid() {
			// The windower drops invalid records, so no window will ever
			// pick this context up; the shard span is the trace's end.
			continue
		}
		k := recs[i].Time.Truncate(e.cfg.Window).UnixNano()
		e.traceMu.Lock()
		e.winTraces[k] = append(e.winTraces[k], tc)
		e.traceMu.Unlock()
	}
}

// advance closes windows across all shards once the stream has moved past
// them: when the newest window start grows, every window strictly older
// than it is closed in every shard and the partials merge into whole
// windows. The fast path — stream still inside the current window — is one
// atomic load.
func (e *Engine) advance(maxStart time.Time) {
	if maxStart.IsZero() || maxStart.UnixNano() <= e.maxStartNS.Load() {
		return
	}
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	ns := maxStart.UnixNano()
	if ns <= e.maxStartNS.Load() {
		return
	}
	e.maxStartNS.Store(ns)
	//lint:allow lockorder closeMu serializes window closes so windows publish in epoch order; it is taken only by Ingest/Flush, which a bus consumer must not reenter (documented on WindowConsumer)
	e.closeShards(maxStart, false)
}

// closeShards closes windows older than cutoff in every shard (all open
// windows when flush is set) and merges the resulting partials. Caller
// holds e.closeMu.
func (e *Engine) closeShards(cutoff time.Time, flush bool) {
	start := time.Now()
	for _, sh := range e.shards {
		sh.mu.Lock()
		if flush {
			//lint:allow lockorder OnComplete is Engine.addPartial (leaf lock pendMu only); see add
			sh.windower.Flush()
		} else {
			//lint:allow lockorder OnComplete is Engine.addPartial (leaf lock pendMu only); see add
			sh.windower.CloseUpTo(cutoff)
		}
		sh.mu.Unlock()
	}
	exemplar := e.mergePending(cutoff, flush)
	elapsed := time.Since(start)
	e.mergeNS.Add(int64(elapsed))
	e.tel.merge.ObserveEx(elapsed.Seconds(), exemplar)
	// The stream is now filling the window one past everything sealed;
	// that is the ingested watermark. Serialized by closeMu, so it never
	// races a concurrent seal's epoch increment.
	e.cfg.Watermarks.Ingested(e.epoch.Load() + 1)
}

// flushLagTripWindows is the arrears threshold that trips the flight
// recorder: a merge pass emitting this many whole windows at once means
// the stream ran far ahead of window closes (stalled ingest, clock jumps,
// or replay bursts) and the pre-fault event window is worth keeping.
const flushLagTripWindows = 8

// mergePending combines per-shard partials for every window starting
// before cutoff (or all of them) and emits the merged windows in order.
// It returns the trace ID of the last sampled context that rode one of the
// merged windows (0 when none) — the exemplar the merge histogram links to.
func (e *Engine) mergePending(cutoff time.Time, all bool) uint64 {
	e.pendMu.Lock()
	var keys []int64
	for k := range e.pending {
		if all || k < cutoff.UnixNano() {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	groups := make([][]*graph.Graph, len(keys))
	for i, k := range keys {
		groups[i] = e.pending[k]
		delete(e.pending, k)
	}
	e.pendMu.Unlock()
	if len(groups) > 0 {
		e.tel.flushLag.Observe(float64(len(groups)))
		if len(groups) >= flushLagTripWindows && e.tracer != nil {
			e.tracer.Eventf(trace.Context{}, "core", slog.LevelWarn,
				"merge pass emitted %d windows in arrears", len(groups))
			e.tracer.Trip("core", "window flush lag: "+strconv.Itoa(len(groups))+" windows in one merge pass")
		}
	}

	// Pop the queued sampled-record contexts for the same key range. The
	// condition matches on key value, not membership in pending, so
	// contexts queued late for an already-merged window (a benign race
	// with concurrent ingest) are swept out on the next pass instead of
	// accumulating.
	var traces map[int64][]trace.Context
	if e.tracer != nil {
		e.traceMu.Lock()
		for k := range e.winTraces {
			if all || k < cutoff.UnixNano() {
				if e.winTraces[k] != nil {
					if traces == nil {
						traces = make(map[int64][]trace.Context)
					}
					traces[k] = e.winTraces[k]
				}
				delete(e.winTraces, k)
			}
		}
		e.traceMu.Unlock()
	}

	var exemplar uint64
	for i, parts := range groups {
		mergeStart := time.Now()
		g := parts[0]
		for _, p := range parts[1:] {
			g.Merge(p)
		}
		var wtcs []trace.Context
		if traces != nil {
			wtcs = traces[keys[i]]
		}
		if len(wtcs) > 0 {
			d := time.Since(mergeStart)
			note := "window=" + g.Start.UTC().Format(time.RFC3339) + " parts=" + strconv.Itoa(len(parts))
			for _, tc := range wtcs {
				e.tracer.Record(tc, "core.merge", mergeStart, d, note)
			}
			exemplar = wtcs[len(wtcs)-1].TraceID
		}
		e.onWindow(g, wtcs)
	}
	return exemplar
}

// Collect implements nicsim.Collector, so an Engine can sit directly at the
// end of the collection path of Figure 7.
func (e *Engine) Collect(recs []flowlog.Record) error {
	e.Ingest(recs)
	return nil
}

// Tracer returns the tracer the engine was configured with (nil when
// tracing is off), so servers fronting the engine can continue its traces.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Flush closes open windows across all shards and waits for every bus
// consumer to process all published windows. The drain means that when
// Flush returns, the store, the timeline, and every analysis have observed
// the full stream — which is what makes online results comparable to batch
// ones.
func (e *Engine) Flush() {
	e.closeMu.Lock()
	//lint:allow lockorder closeMu keeps window publication ordered; see advance
	e.closeShards(time.Time{}, true)
	e.closeMu.Unlock()
	e.bus.Drain()
}

// Cost returns the ingest cost report so far, including the per-shard
// breakdown of the hot path.
func (e *Engine) Cost() ingest.CostReport {
	r := e.meter.Snapshot()
	r.Workers = len(e.shards)
	r.Shards = make([]ingest.ShardStat, len(e.shards))
	var busy time.Duration
	for i, sh := range e.shards {
		sh.mu.Lock()
		st := ingest.ShardStat{
			Records: sh.records,
			Busy:    sh.busy,
			Depth:   sh.windower.Pending(),
		}
		sh.mu.Unlock()
		r.Shards[i] = st
		busy += st.Busy
	}
	r.WorkerBusy = busy
	r.Merge = time.Duration(e.mergeNS.Load())
	return r
}
