package core

import (
	"strconv"

	"cloudgraph/internal/telemetry"
)

// engineMetrics holds the engine's preallocated telemetry handles. All
// handles are grabbed once at construction so the hot path never touches
// the registry; with telemetry disabled every handle is nil and each
// instrumentation point costs one predictable branch (the nil-receiver
// no-op), which is what keeps the instrumented ingest path within the
// benchmark budget.
type engineMetrics struct {
	// shardRecords counts records folded per ingest shard — the shard
	// balance view. Always sized len(shards); entries are nil when
	// telemetry is off.
	shardRecords []*telemetry.Counter
	// merge times closeShards: closing windows across shards plus the
	// cross-shard partial merge.
	merge *telemetry.Histogram
	// hook times the OnWindow callback (store appends ride on it).
	hook *telemetry.Histogram
	// windows counts completed (merged, collapsed) windows.
	windows *telemetry.Counter
	// flushLag samples how many whole windows each merge pass emitted: 1
	// is a stream keeping up, larger values mean windows were closed in
	// arrears (the window-lag view of the ops endpoint).
	flushLag *telemetry.Histogram
}

// instrument registers the engine's metric families in reg and
// preallocates the handles. A nil registry leaves every handle nil.
func (e *Engine) instrument(reg *telemetry.Registry) {
	e.tel.shardRecords = make([]*telemetry.Counter, len(e.shards))
	if reg == nil {
		return
	}
	for i, sh := range e.shards {
		shard := telemetry.Label{Key: "shard", Value: strconv.Itoa(i)}
		e.tel.shardRecords[i] = reg.Counter("cloudgraph_core_shard_records_total",
			"records folded per ingest shard", shard)
		sh.late = reg.Counter("cloudgraph_core_late_records_total",
			"records older than the newest window their shard had reached", shard)
	}
	e.tel.merge = reg.Histogram("cloudgraph_core_window_merge_seconds",
		"time closing windows across shards and merging their partial graphs",
		telemetry.DurBuckets)
	e.tel.hook = reg.Histogram("cloudgraph_core_onwindow_seconds",
		"time spent in the OnWindow hook per completed window",
		telemetry.DurBuckets)
	e.tel.windows = reg.Counter("cloudgraph_core_windows_completed_total",
		"completed window graphs emitted by the engine")
	e.tel.flushLag = reg.Histogram("cloudgraph_core_window_flush_lag_windows",
		"whole windows emitted per merge pass; >1 means the close ran in arrears",
		telemetry.CountBuckets)
	reg.GaugeFunc("cloudgraph_core_open_windows",
		"still-open windows summed across shards",
		func() float64 {
			total := 0
			for _, sh := range e.shards {
				sh.mu.Lock()
				total += sh.windower.Pending()
				sh.mu.Unlock()
			}
			return float64(total)
		})
	reg.GaugeFunc("cloudgraph_core_pending_merge_windows",
		"per-shard partial windows queued for the cross-shard merge",
		func() float64 {
			e.pendMu.Lock()
			n := len(e.pending)
			e.pendMu.Unlock()
			return float64(n)
		})
	e.meter.Instrument(reg)
}
