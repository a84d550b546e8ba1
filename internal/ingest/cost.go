package ingest

import "time"

// CostReport accounts the cost of goods sold for an ingest stream: record
// and byte volume, wall-clock throughput and — combined with worker busy
// time — how many "VMs worth of resources" the analysis consumes. The
// paper's viability bar is analyzing ~1000 VMs of telemetry with a handful
// of VMs, roughly a 0.5% surcharge (§3.2). core.Engine.Cost fills it in.
type CostReport struct {
	Records       int64
	Bytes         int64
	Wall          time.Duration
	RecordsPerSec float64
	// WorkerBusy is summed CPU-equivalent busy time across workers.
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
