package realm

import (
	"sync/atomic"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/telemetry"
)

// cogsMeter accumulates one tenant's cost-of-goods-sold counters: what
// serving this subscription's dynamic communication graph actually
// consumes. The paper's economic claim is COGS-per-subscription; these
// five series (records, wire bytes, graph memory, compute seconds, disk
// bytes) are that claim made measurable per tenant.
type cogsMeter struct {
	records    atomic.Int64
	ingestNS   atomic.Int64
	analysisNS atomic.Int64
	graphBytes atomic.Int64 // latest sealed window's in-memory size
}

func (c *cogsMeter) addBatch(n int) {
	c.records.Add(int64(n))
}

func (c *cogsMeter) timeIngest(start time.Time) {
	c.ingestNS.Add(int64(time.Since(start)))
}

func (c *cogsMeter) timeAnalysis(start time.Time) {
	c.analysisNS.Add(int64(time.Since(start)))
}

// Cost is one tenant's COGS snapshot — the /tenantz row, the `graphctl
// top` tenant columns, and bench's realm.cogs_* layer rows.
type Cost struct {
	Tenant string `json:"tenant"`
	Weight int64  `json:"weight"`
	// Records and WireBytes meter the ingest stream (WireBytes =
	// Records x the fixed record wire size; tag and trace appendices are
	// protocol overhead, not tenant payload).
	Records   int64 `json:"records"`
	WireBytes int64 `json:"wire_bytes"`
	// GraphBytes is the latest sealed window's in-memory graph size.
	GraphBytes int64 `json:"graph_bytes"`
	// IngestSeconds and AnalysisSeconds split scheduled compute between
	// the merge path and the analysis plane.
	IngestSeconds   float64 `json:"ingest_seconds"`
	AnalysisSeconds float64 `json:"analysis_seconds"`
	// DiskBytes is the tenant's durable history footprint (0 without
	// -data-dir).
	DiskBytes int64 `json:"disk_bytes"`
	// QueueDepth is the tenant's backlog in the weighted-fair scheduler.
	QueueDepth int `json:"queue_depth"`
	// SealedEpoch is the tenant pipeline's newest sealed window.
	SealedEpoch uint64 `json:"sealed_epoch"`
	// BudgetRemaining mirrors the tenant's freshness SLO budget.
	BudgetRemaining float64 `json:"budget_remaining"`
}

// instrument registers the tenant-labeled COGS series. All handles read
// the meter's atomics through GaugeFunc, so registration is one-time and
// the hot path stays a plain atomic add.
func (r *Realm) instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	label := telemetry.Label{Key: "tenant", Value: r.name}
	c := &r.cogs
	reg.GaugeFunc("cloudgraph_tenant_records_total",
		"records ingested into the tenant's realm",
		func() float64 { return float64(c.records.Load()) }, label)
	reg.GaugeFunc("cloudgraph_tenant_ingest_bytes_total",
		"wire bytes of records ingested into the tenant's realm",
		func() float64 { return float64(c.records.Load() * flowlog.WireSize) }, label)
	reg.GaugeFunc("cloudgraph_tenant_graph_bytes",
		"in-memory size of the tenant's latest sealed window graph",
		func() float64 { return float64(c.graphBytes.Load()) }, label)
	reg.GaugeFunc("cloudgraph_tenant_ingest_seconds_total",
		"scheduled merge-path compute spent on the tenant",
		func() float64 { return time.Duration(c.ingestNS.Load()).Seconds() }, label)
	reg.GaugeFunc("cloudgraph_tenant_analysis_seconds_total",
		"scheduled analysis-plane compute spent on the tenant",
		func() float64 { return time.Duration(c.analysisNS.Load()).Seconds() }, label)
	reg.GaugeFunc("cloudgraph_tenant_disk_bytes",
		"durable history bytes on disk for the tenant",
		func() float64 { return float64(r.diskBytes()) }, label)
	reg.GaugeFunc("cloudgraph_tenant_weight",
		"the tenant's weighted-fair scheduler weight",
		func() float64 { return float64(r.m.weight(r.name)) }, label)
}
