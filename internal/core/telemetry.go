package core

import (
	"strconv"

	"cloudgraph/internal/telemetry"
)

// Instrument registers the engine's metric families in reg, each series
// carrying labels (a realm passes its tenant) after its own shard or
// consumer label, so the engines of several tenants share one registry.
// Every series but the two latency histograms is a GaugeFunc over a count
// the engine keeps anyway — a shard's records and late records, the epoch
// counter, the open and pending windows, each bus consumer's queue and
// counters — so the hot path pays nothing for it. Call once, before the
// first Ingest. A nil registry is a no-op.
func (e *Engine) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	if reg == nil {
		return
	}
	for i, sh := range e.shards {
		ls := append([]telemetry.Label{{Key: "shard", Value: strconv.Itoa(i)}}, labels...)
		reg.GaugeFunc("cloudgraph_core_shard_records_total",
			"records folded per ingest shard",
			func() float64 {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				return float64(sh.records)
			}, ls...)
		reg.GaugeFunc("cloudgraph_core_late_records_total",
			"records older than the newest window their shard had reached",
			func() float64 {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				return float64(sh.windower.Late())
			}, ls...)
	}
	e.merge = reg.Histogram("cloudgraph_core_window_merge_seconds",
		"time closing windows across shards and merging their partial graphs",
		telemetry.DurBuckets, labels...)
	// 1 is a stream keeping up; more means windows closed in arrears.
	e.flushLag = reg.Histogram("cloudgraph_core_window_flush_lag_windows",
		"whole windows emitted per merge pass; >1 means the close ran in arrears",
		telemetry.CountBuckets, labels...)
	reg.GaugeFunc("cloudgraph_core_windows_completed_total",
		"completed window graphs emitted by the engine",
		func() float64 { return float64(e.epoch.Load() - e.cfg.StartEpoch) }, labels...)
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
		}, labels...)
	reg.GaugeFunc("cloudgraph_core_pending_merge_windows",
		"per-shard partial windows queued for the cross-shard merge",
		func() float64 {
			e.pendMu.Lock()
			defer e.pendMu.Unlock()
			return float64(len(e.pending))
		}, labels...)
	e.bus.instrument(reg, labels)
}
