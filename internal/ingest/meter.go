package ingest

import (
	"sync/atomic"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/telemetry"
)

// Meter accounts the cost of goods sold for an ingest stream: record and
// byte volume, wall-clock throughput and — combined with worker busy time —
// how many "VMs worth of resources" the analysis consumes. The paper's
// viability bar is analyzing ~1000 VMs of telemetry with a handful of VMs,
// roughly a 0.5% surcharge (§3.2).
type Meter struct {
	start   time.Time
	records atomic.Int64
	bytes   atomic.Int64

	// Optional telemetry mirrors, bound once before ingest starts and
	// read without synchronization on the hot path (nil handles no-op).
	telRecords *telemetry.Counter
	telBytes   *telemetry.Counter
}

// NewMeter returns a meter starting now.
func NewMeter() *Meter {
	return &Meter{start: time.Now()}
}

// Instrument registers the shared ingest counter families in reg and
// mirrors every Observe into them; every engine binds the same families,
// so the wire-throughput view is one pair of counters however many realms
// ingest. Call before the first Observe; a nil registry leaves the meter
// un-mirrored.
func (m *Meter) Instrument(reg *telemetry.Registry) {
	m.telRecords = reg.Counter("cloudgraph_ingest_records_total",
		"connection summaries accepted by an ingest path")
	m.telBytes = reg.Counter("cloudgraph_ingest_bytes_total",
		"wire bytes of accepted connection summaries")
}

// Observe credits n ingested records.
func (m *Meter) Observe(n int) {
	m.records.Add(int64(n))
	m.bytes.Add(int64(n * flowlog.WireSize))
	m.telRecords.Add(int64(n))
	m.telBytes.Add(int64(n * flowlog.WireSize))
}

// CostReport summarizes an ingest run.
type CostReport struct {
	Records       int64
	Bytes         int64
	Wall          time.Duration
	RecordsPerSec float64
	// WorkerBusy is summed CPU-equivalent busy time across workers;
	// filled in by core.Engine.Cost.
	WorkerBusy time.Duration
	Workers    int
	// Shards breaks the work down per shard for the sharded ingest paths.
	Shards []ShardStat
	// Merge is the time spent combining per-shard partial graphs into
	// whole windows.
	Merge time.Duration
}

// ShardStat is per-shard observability for a sharded ingest path: how much
// work the shard absorbed, how long it spent folding records, and how much
// is still queued behind it.
type ShardStat struct {
	// Records routed to this shard by flow-key hash.
	Records int64
	// Busy is time spent folding records into the shard's builders.
	Busy time.Duration
	// Depth is the shard's backlog: its still-open windows.
	Depth int
}

// Snapshot returns the current cost report.
func (m *Meter) Snapshot() CostReport {
	wall := time.Since(m.start)
	r := CostReport{Records: m.records.Load(), Bytes: m.bytes.Load(), Wall: wall}
	if secs := wall.Seconds(); secs > 0 {
		r.RecordsPerSec = float64(r.Records) / secs
	}
	return r
}

// CoresForLive returns how many cores of this pipeline it would take to keep
// up with a live stream of recordsPerMin — the Figure 8 sizing question. It
// extrapolates from the measured busy time per record.
func (r CostReport) CoresForLive(recordsPerMin float64) float64 {
	if r.Records == 0 || r.WorkerBusy <= 0 {
		return 0
	}
	busyPerRecord := r.WorkerBusy.Seconds() / float64(r.Records)
	return recordsPerMin * busyPerRecord / 60
}

// SurchargePct returns the analysis cost as a percentage of the monitored
// fleet, assuming vmsMonitored VMs and coresPerVM cores per analysis VM.
func (r CostReport) SurchargePct(recordsPerMin float64, vmsMonitored, coresPerVM int) float64 {
	if vmsMonitored <= 0 || coresPerVM <= 0 {
		return 0
	}
	cores := r.CoresForLive(recordsPerMin)
	vmsNeeded := cores / float64(coresPerVM)
	return 100 * vmsNeeded / float64(vmsMonitored)
}
