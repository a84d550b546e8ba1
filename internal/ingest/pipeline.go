// Package ingest implements the streaming side of the analytics system
// (§3.2): connection summaries arrive in minibatches, are sharded across
// parallel workers by flow key, aggregated into partial communication
// graphs, and merged on demand. A space-saving sketch tracks heavy-hitter
// nodes online, and a meter accounts for the COGS the paper argues must
// stay below roughly a 0.5% surcharge.
package ingest

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
)

// Pipeline is a parallel group-by-aggregation execution plan: records
// sharded by flow key so that the two reports of an intra-subscription flow
// always meet in the same worker's deduplication window.
type Pipeline struct {
	opts    graph.BuilderOptions
	workers []*worker
	wg      sync.WaitGroup
	meter   *Meter
	tracer  *trace.Tracer

	// mu guards closed and the worker channels: Ingest holds the read
	// side while sending, Close holds the write side while closing, so an
	// Ingest racing a Close can never send on a closed channel and an
	// Ingest after Close is a safe no-op.
	mu     sync.RWMutex
	closed bool
}

type worker struct {
	in      chan []flowlog.Record
	builder *graph.Builder
	records int64
	busy    time.Duration
}

// NewPipeline returns a running pipeline with n parallel workers (n<=0
// means 1). Close must be called to obtain the result.
func NewPipeline(n int, opts graph.BuilderOptions) *Pipeline {
	if n <= 0 {
		n = 1
	}
	p := &Pipeline{opts: opts, meter: NewMeter()}
	for i := 0; i < n; i++ {
		w := &worker{
			in:      make(chan []flowlog.Record, 8),
			builder: graph.NewBuilder(opts),
		}
		p.workers = append(p.workers, w)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for batch := range w.in {
				start := time.Now()
				for _, rec := range batch {
					w.builder.Add(rec)
				}
				w.records += int64(len(batch))
				w.busy += time.Since(start)
			}
		}()
	}
	return p
}

// Instrument mirrors the pipeline's meter into reg — the same
// cloudgraph_ingest_* families the engine's sharded path reports. Call
// before the first Ingest.
func (p *Pipeline) Instrument(reg *telemetry.Registry) {
	p.meter.Instrument(reg)
}

// Trace attaches tr so IngestTraced records "ingest.shard" spans for
// sampled records. Call before the first Ingest; nil leaves the pipeline
// untraced.
func (p *Pipeline) Trace(tr *trace.Tracer) { p.tracer = tr }

// shardSeed keeps sharding deterministic across runs.
const shardSeed = 0x51ed2701

// ShardOf hashes a flow key onto one of n shards. Both reports of an
// intra-subscription flow carry the same directionless key, so they always
// land in the same shard — the property the deduplication window depends
// on. The engine's sharded hot path (internal/core) uses the same scheme
// through ShardOfRecord, so a flow aggregates identically whichever path
// ingests it.
func ShardOf(k flowlog.FlowKey, n int) int {
	return shardOf(endpointHash(k.A.Addr(), k.A.Port()), endpointHash(k.B.Addr(), k.B.Port()), n)
}

// ShardOfRecord is ShardOf(r.Key(), n) without building the key: the two
// endpoint hashes combine commutatively, so the record's local/remote order
// gives the same shard as the key's canonical one.
//
//vet:borrowed r
func ShardOfRecord(r *flowlog.Record, n int) int {
	return shardOf(endpointHash(r.LocalIP, r.LocalPort), endpointHash(r.RemoteIP, r.RemotePort), n)
}

// endpointHash mixes one endpoint as three words — the address's two
// 64-bit halves and the port — a multiply and a rotate each, where FNV-1a
// took a dependent multiply per byte.
func endpointHash(ip netip.Addr, port uint16) uint64 {
	a := ip.As16()
	h := (binary.BigEndian.Uint64(a[:8]) ^ shardSeed) * 0x9e3779b97f4a7c15
	h = (bits.RotateLeft64(h, 32) ^ binary.BigEndian.Uint64(a[8:])) * 0xbf58476d1ce4e5b9
	return (bits.RotateLeft64(h, 32) ^ uint64(port)) * 0x94d049bb133111eb
}

// shardOf sums the endpoint hashes (order-free), avalanches the sum and
// scales its high half onto [0, n).
func shardOf(a, b uint64, n int) int {
	h := a + b
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return int((h >> 32) * uint64(n) >> 32)
}

// Ingest accepts one minibatch, splits it by flow-key shard and hands the
// shards to the workers. It blocks only when worker queues are full
// (backpressure), mirroring the paper's SaaS sketch where the stream
// processor adapts to load. Ingest after Close is a no-op.
func (p *Pipeline) Ingest(batch []flowlog.Record) { p.IngestTraced(batch, nil) }

// IngestTraced is Ingest with out-of-band trace contexts: tcs is nil or
// parallel to batch, and each sampled record gets an "ingest.shard" span
// covering the split-and-dispatch hand-off. Aggregation output is
// identical to Ingest — contexts never touch the records.
func (p *Pipeline) IngestTraced(batch []flowlog.Record, tcs []trace.Context) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed || len(batch) == 0 {
		return
	}
	tr := p.tracer
	var traceStart time.Time
	if tr != nil && len(tcs) == len(batch) {
		traceStart = time.Now()
	} else {
		tcs = nil
	}
	p.meter.Observe(len(batch))
	n := len(p.workers)
	if n == 1 {
		//lint:allow lockscope the send must stay inside the RLock: Close holds the write lock while closing worker channels, so a send here can never hit a closed channel (the PR-1 race this guards against); workers drain concurrently, so the send cannot deadlock the RLock
		p.workers[0].in <- batch
		p.recordShardSpans(batch, tcs, traceStart, 1)
		return
	}
	shards := make([][]flowlog.Record, n)
	for i := range batch {
		s := ShardOfRecord(&batch[i], n)
		shards[s] = append(shards[s], batch[i])
	}
	for i, s := range shards {
		if len(s) > 0 {
			//lint:allow lockscope send under RLock is the close-race guard; see the single-worker case above
			p.workers[i].in <- s
		}
	}
	p.recordShardSpans(batch, tcs, traceStart, n)
}

// recordShardSpans emits the "ingest.shard" span for every sampled record
// of the batch; a nil tcs is a no-op.
func (p *Pipeline) recordShardSpans(batch []flowlog.Record, tcs []trace.Context, start time.Time, n int) {
	if tcs == nil {
		return
	}
	d := time.Since(start)
	for i, tc := range tcs {
		if tc.Sampled() {
			p.tracer.Record(tc, "ingest.shard", start, d, "shard="+strconv.Itoa(ShardOfRecord(&batch[i], n)))
		}
	}
}

// Close drains the workers and returns the merged communication graph plus
// the pipeline's cost report.
func (p *Pipeline) Close() (*graph.Graph, CostReport) {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, w := range p.workers {
			close(w.in)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
	out := graph.New(p.opts.Facet)
	var busy time.Duration
	report := p.meter.Snapshot()
	mergeStart := time.Now()
	for _, w := range p.workers {
		out.Merge(w.builder.Finish())
		busy += w.busy
		report.Shards = append(report.Shards, ShardStat{
			Records: w.records,
			Busy:    w.busy,
			Depth:   len(w.in),
		})
	}
	report.Merge = time.Since(mergeStart)
	report.WorkerBusy = busy
	report.Workers = len(p.workers)
	return out, report
}
