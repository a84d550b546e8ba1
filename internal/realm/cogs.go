package realm

import (
	"sync/atomic"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/telemetry"
)

// cogsMeter accumulates the compute a tenant costs: what serving this
// subscription's dynamic communication graph actually consumes. The
// paper's economic claim is COGS-per-subscription; with the records its
// engine's shards count, the graph memory its timeline holds and the
// disk bytes its history store holds, these make that claim measurable
// per tenant.
type cogsMeter struct {
	ingestNS   atomic.Int64
	analysisNS atomic.Int64
}

func (c *cogsMeter) timeIngest(start time.Time) {
	c.ingestNS.Add(int64(time.Since(start)))
}

func (c *cogsMeter) timeAnalysis(start time.Time) {
	c.analysisNS.Add(int64(time.Since(start)))
}

// Cost is one tenant's COGS snapshot. Embedded flat, it is the head of
// the tenant's /statusz row (the document /tenantz serves too), hence the
// `graphctl top` tenant columns and bench's realm.cogs_* layer rows.
type Cost struct {
	Tenant string `json:"tenant"`
	Weight int64  `json:"weight"`
	// Records and WireBytes meter the ingest stream (WireBytes =
	// Records x the fixed record wire size; tag and trace appendices are
	// protocol overhead, not tenant payload).
	Records   int64 `json:"records"`
	WireBytes int64 `json:"wire_bytes"`
	// GraphBytes is the in-memory size of the latest window graph in the
	// tenant's timeline: 0 before the first.
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
}

// instrument registers the tenant-labeled COGS series. Each is a
// GaugeFunc over a count the realm's parts keep, so registration is
// one-time and the hot path pays nothing for it.
func (r *Realm) instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	label := telemetry.Label{Key: "tenant", Value: r.name}
	c := &r.cogs
	reg.GaugeFunc("cloudgraph_tenant_records_total",
		"records ingested into the tenant's realm",
		func() float64 { return float64(r.engine.Records()) }, label)
	reg.GaugeFunc("cloudgraph_tenant_ingest_bytes_total",
		"wire bytes of records ingested into the tenant's realm",
		func() float64 { return float64(r.engine.Records() * flowlog.WireSize) }, label)
	reg.GaugeFunc("cloudgraph_tenant_graph_bytes",
		"in-memory size of the latest window graph in the tenant's timeline",
		func() float64 { return float64(r.graphBytes()) }, label)
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
