package cloudgraph

// One benchmark per paper artifact (see DESIGN.md's per-experiment index)
// plus ablation benches for the design choices it calls out. Fixtures are
// generated once per process at reduced scale so `go test -bench=.` stays
// laptop-friendly; cmd/experiments regenerates the full-scale numbers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/heatmap"
	"cloudgraph/internal/matrix"
	"cloudgraph/internal/nicsim"
	"cloudgraph/internal/policy"
	"cloudgraph/internal/runner"
	"cloudgraph/internal/segment"
	"cloudgraph/internal/summarize"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
	"cloudgraph/internal/watermark"
	"net/netip"
)

var benchStart = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)

type fixture struct {
	cluster *cluster.Cluster
	records []flowlog.Record
	graph   *graph.Graph
}

var (
	fixOnce sync.Once
	fixK8s  fixture // K8s PaaS at scale 0.25
	fixUSvc fixture // µserviceBench at scale 0.1
)

func loadFixtures(tb testing.TB) {
	tb.Helper()
	fixOnce.Do(func() {
		mk := func(preset string, scale float64) fixture {
			spec, err := cluster.Preset(preset, scale)
			if err != nil {
				panic(err)
			}
			c, err := cluster.New(spec)
			if err != nil {
				panic(err)
			}
			recs, err := c.CollectHour(benchStart)
			if err != nil {
				panic(err)
			}
			g := graph.Build(recs, graph.BuilderOptions{Facet: graph.FacetIP})
			if spec.CollapseThreshold > 0 {
				g = g.Collapse(graph.CollapseOptions{
					Threshold: spec.CollapseThreshold,
					Keep:      func(n graph.Node) bool { return c.Monitored(n.Addr) },
				})
			}
			return fixture{cluster: c, records: recs, graph: g}
		}
		fixK8s = mk("k8spaas", 0.25)
		fixUSvc = mk("microservicebench", 0.1)
	})
}

// --- Table 1: graph construction from raw telemetry -----------------------

func BenchmarkTable1GraphConstruction(b *testing.B) {
	loadFixtures(b)
	recs := fixK8s.records
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.Build(recs, graph.BuilderOptions{Facet: graph.FacetIP})
		if g.NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
	b.ReportMetric(float64(len(recs)*b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkFacetIPPort(b *testing.B) {
	loadFixtures(b)
	recs := fixUSvc.records
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.Build(recs, graph.BuilderOptions{Facet: graph.FacetIPPort})
		if g.NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// --- Table 3: provider sampling -------------------------------------------

func BenchmarkTable3Sampling(b *testing.B) {
	loadFixtures(b)
	s := flowlog.NewSampler(flowlog.GCP, 42)
	recs := fixUSvc.records
	b.ResetTimer()
	kept := 0
	for i := 0; i < b.N; i++ {
		if _, ok := s.Sample(recs[i%len(recs)]); ok {
			kept++
		}
	}
	if b.N > 1000 && (kept == 0 || kept == b.N) {
		b.Fatalf("sampler kept %d of %d", kept, b.N)
	}
}

// --- Figures 1 and 3: segmentation strategies ------------------------------

func benchSegment(b *testing.B, s segment.Strategy) {
	loadFixtures(b)
	g := fixK8s.graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := segment.Run(s, g, segment.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1Segmentation(b *testing.B)    { benchSegment(b, segment.StrategyJaccardLouvain) }
func BenchmarkFig3SimRank(b *testing.B)         { benchSegment(b, segment.StrategySimRank) }
func BenchmarkFig3SimRankPP(b *testing.B)       { benchSegment(b, segment.StrategySimRankPP) }
func BenchmarkFig3ModularityConn(b *testing.B)  { benchSegment(b, segment.StrategyModularityConn) }
func BenchmarkFig3ModularityBytes(b *testing.B) { benchSegment(b, segment.StrategyModularityBytes) }

// --- Figures 4/5: adjacency matrices, heatmaps and drift -------------------

func BenchmarkFig4Heatmap(b *testing.B) {
	loadFixtures(b)
	adj := fixK8s.graph.AdjacencyMatrix(graph.Bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := heatmap.ASCII(adj.M, adj.N, 64); len(out) == 0 {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkFig5Diff(b *testing.B) {
	loadFixtures(b)
	g := fixK8s.graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := graph.Diff(g, g)
		if d.ByteChange != 0 {
			b.Fatal("self diff nonzero")
		}
	}
}

// --- Figure 6: CCDF ---------------------------------------------------------

func BenchmarkFig6CCDF(b *testing.B) {
	loadFixtures(b)
	g := fixK8s.graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := summarize.CCDF(g, graph.Bytes); len(pts) == 0 {
			b.Fatal("empty curve")
		}
	}
}

// --- §2.2: PCA reconstruction ----------------------------------------------

func BenchmarkPCAReconstruction(b *testing.B) {
	loadFixtures(b)
	adj := fixK8s.graph.AdjacencyMatrix(graph.Bytes)
	p, err := matrix.NewPCA(adj.Symmetrized(), adj.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.ReconErr(25)
	}
}

func BenchmarkPCADecompose(b *testing.B) {
	loadFixtures(b)
	adj := fixK8s.graph.AdjacencyMatrix(graph.Bytes)
	sym := adj.Symmetrized()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.NewPCA(sym, adj.N); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: NIC flow table ------------------------------------------------

func BenchmarkNICFlowTable(b *testing.B) {
	v := nicsim.NewVNIC(netip.MustParseAddr("10.0.0.1"), 4*time.Minute)
	remote := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.1"), 443)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Observe(uint16(30000+i%1000), remote, 1, 1, 1460, 60, benchStart)
	}
}

func BenchmarkNICHostPull(b *testing.B) {
	h := nicsim.NewHost(4 * time.Minute)
	var vnics []*nicsim.VNIC
	for vm := 0; vm < 16; vm++ {
		v := h.PlaceVM(netip.AddrFrom4([4]byte{10, 0, 0, byte(vm + 1)}))
		vnics = append(vnics, v)
		for f := 0; f < 200; f++ {
			v.Observe(uint16(30000+f), netip.AddrPortFrom(netip.MustParseAddr("203.0.113.1"), 443), 1, 1, 100, 100, benchStart)
		}
	}
	sink := nicsim.CollectorFunc(func([]flowlog.Record) error { return nil })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Pull(benchStart, sink); err != nil {
			b.Fatal(err)
		}
		// Re-touch one flow per VM so subsequent pulls emit records.
		for _, v := range vnics {
			v.Observe(30000, netip.AddrPortFrom(netip.MustParseAddr("203.0.113.1"), 443), 1, 1, 100, 100, benchStart)
		}
	}
}

// genWarmMinutes is how long BenchmarkGenerateMinute runs a cluster before
// timing it: one minute past the fabric's 4-minute idle timeout, so the
// flow tables hold what they hold in steady state (bench's set-up, flowgen)
// and the first evictions have happened.
const genWarmMinutes = 5

// BenchmarkGenerateMinute times one simulated minute of a preset per op —
// the cluster's Tick into the fabric plus every host agent's pull, the
// path behind bench's set-up and flowgen — after genWarmMinutes of warm-up.
// ns/record and allocs/record divide by the records the minutes emitted.
// -short skips kquery: KQuery×1 warms up for about 20 s and peaks near
// 2 GB RSS.
func BenchmarkGenerateMinute(b *testing.B) {
	for _, ds := range []struct {
		preset string
		scale  float64
	}{{"microservicebench", 0.25}, {"k8spaas", 0.25}, {"kquery", 1}} {
		b.Run(ds.preset, func(b *testing.B) {
			if ds.preset == "kquery" && testing.Short() {
				b.Skip("KQuery×1 generation is too large for -short")
			}
			spec, err := cluster.Preset(ds.preset, ds.scale)
			if err != nil {
				b.Fatal(err)
			}
			c, err := cluster.New(spec)
			if err != nil {
				b.Fatal(err)
			}
			recs := 0
			sink := nicsim.CollectorFunc(func(batch []flowlog.Record) error { recs += len(batch); return nil })
			if _, err := c.Run(benchStart, genWarmMinutes, sink); err != nil {
				b.Fatal(err)
			}
			recs = 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := c.Run(benchStart.Add(genWarmMinutes*time.Minute), b.N, sink); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if recs == 0 {
				b.Fatal("no records generated")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(recs), "allocs/record")
		})
	}
}

// --- Figure 8: analytics ingest throughput -----------------------------------

// benchIngest folds the fixture hour through a fresh engine per
// iteration, one caller feeding shards shard lanes batch records at a time.
func benchIngest(b *testing.B, shards, batch int) {
	loadFixtures(b)
	recs := fixK8s.records
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := core.NewEngine(core.Config{Window: time.Hour, Shards: shards})
		for off := 0; off < len(recs); off += batch {
			e.Ingest(recs[off:min(off+batch, len(recs))])
		}
		if e.Flush(); e.Epoch() == 0 {
			b.Fatal("no windows completed")
		}
		e.Close()
	}
	b.ReportMetric(float64(len(recs)*b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkAnalyticsIngest1Worker(b *testing.B)  { benchIngest(b, 1, 8192) }
func BenchmarkAnalyticsIngest4Workers(b *testing.B) { benchIngest(b, 4, 8192) }

// BenchmarkEngineIngestSharded drives the engine's sharded hot path from
// GOMAXPROCS concurrent ingesters — the analytics-server picture, where
// every client connection calls Engine.Ingest directly. With one shard all
// of them serialize on one lock; with more shards throughput scales until
// the hardware runs out.
func BenchmarkEngineIngestSharded(b *testing.B) {
	loadFixtures(b)
	recs := fixK8s.records
	const batch = 4096
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := core.NewEngine(core.Config{Window: time.Hour, Shards: shards})
			var off atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(off.Add(1)-1) * batch % len(recs)
					end := i + batch
					if end > len(recs) {
						end = len(recs)
					}
					e.Ingest(recs[i:end])
				}
			})
			b.StopTimer()
			if e.Flush(); e.Epoch() == 0 {
				b.Fatal("no windows completed")
			}
			b.ReportMetric(float64(int64(batch)*int64(b.N))/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(batch)*int64(b.N)), "ns/rec")
		})
	}
}

// BenchmarkEngineIngestTelemetry measures the telemetry tax on the engine's
// ingest hot path: the same single-goroutine batch stream with the registry
// disabled and enabled. The instrumented path must stay within a few
// percent of baseline — the handles are preallocated and lock-free, so the
// per-batch cost is a handful of atomic adds
// (TestTelemetryOverheadWithinBudget enforces the budget).
func BenchmarkEngineIngestTelemetry(b *testing.B) {
	loadFixtures(b)
	recs := fixK8s.records
	const batch = 4096
	run := func(b *testing.B, reg *telemetry.Registry) {
		e := core.NewEngine(core.Config{Window: time.Hour, Shards: 4, Telemetry: reg})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := i * batch % len(recs)
			end := off + batch
			if end > len(recs) {
				end = len(recs)
			}
			e.Ingest(recs[off:end])
		}
		b.StopTimer()
		if e.Flush(); e.Epoch() == 0 {
			b.Fatal("no windows completed")
		}
		b.ReportMetric(float64(int64(batch)*int64(b.N))/b.Elapsed().Seconds(), "records/s")
	}
	b.Run("telemetry=off", func(b *testing.B) { run(b, nil) })
	b.Run("telemetry=on", func(b *testing.B) { run(b, telemetry.NewRegistry()) })
}

// BenchmarkEngineIngestWatermarks measures the watermark-accounting tax on
// the engine's ingest hot path: tracker off versus on (with an SLO-tracked
// stage riding a bus consumer, the cloudgraphd shape). Per window the cost
// is one ring store plus two CAS-max bumps on seal, and one CAS loop per
// stage advance — all off the per-record path, so the ratio must stay
// within the same ≤10% budget as telemetry
// (TestTelemetryOverheadWithinBudget's watermarks gate enforces it).
func BenchmarkEngineIngestWatermarks(b *testing.B) {
	loadFixtures(b)
	recs := fixK8s.records
	const batch = 4096
	run := func(b *testing.B, wm *watermark.Tracker) {
		cfg := core.Config{Window: time.Hour, Shards: 4, Watermarks: wm}
		if wm != nil {
			st := wm.Stage("analyzed.bench", true)
			cfg.Consumers = []core.ConsumerSpec{{
				Name: "bench",
				Fn:   func(epoch uint64, _ *graph.Graph) { st.Advance(epoch) },
			}}
		}
		e := core.NewEngine(cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := i * batch % len(recs)
			end := off + batch
			if end > len(recs) {
				end = len(recs)
			}
			e.Ingest(recs[off:end])
		}
		b.StopTimer()
		if e.Flush(); e.Epoch() == 0 {
			b.Fatal("no windows completed")
		}
		e.Close()
		b.ReportMetric(float64(int64(batch)*int64(b.N))/b.Elapsed().Seconds(), "records/s")
	}
	b.Run("watermarks=off", func(b *testing.B) { run(b, nil) })
	b.Run("watermarks=on", func(b *testing.B) {
		run(b, watermark.New(watermark.Config{FreshnessTarget: 5 * time.Second}))
	})
}

// BenchmarkEngineIngestTracing measures the tracing tax on the engine's
// ingest hot path at the three operating points: no tracer at all, a
// tracer attached with sampling off (the production default — the cost is
// the nil-safe branches plus one len check per batch), and 1-in-1024
// sampling (the recommended live rate; sampled records pay for span
// recording, the rest pay one compare). Contexts arrive precomputed and
// parallel to the batch, matching how the analytics server hands them to
// IngestTraced off the wire.
func BenchmarkEngineIngestTracing(b *testing.B) {
	loadFixtures(b)
	recs := fixK8s.records
	const batch = 4096
	run := func(b *testing.B, tr *trace.Tracer, tcs []trace.Context) {
		e := core.NewEngine(core.Config{Window: time.Hour, Shards: 4, Trace: tr})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := i * batch % len(recs)
			end := off + batch
			if end > len(recs) {
				end = len(recs)
			}
			if tcs == nil {
				e.IngestTraced(recs[off:end], nil)
			} else {
				e.IngestTraced(recs[off:end], tcs[off:end])
			}
		}
		b.StopTimer()
		if e.Flush(); e.Epoch() == 0 {
			b.Fatal("no windows completed")
		}
		b.ReportMetric(float64(int64(batch)*int64(b.N))/b.Elapsed().Seconds(), "records/s")
	}
	b.Run("tracing=off", func(b *testing.B) { run(b, nil, nil) })
	b.Run("sample=0", func(b *testing.B) {
		run(b, trace.New(trace.Options{}), nil)
	})
	b.Run("sample=1in1024", func(b *testing.B) {
		s := trace.NewSampler(1024, 1)
		tcs := make([]trace.Context, len(recs))
		for i := range tcs {
			tcs[i] = s.Next()
		}
		run(b, trace.New(trace.Options{SampleEvery: 1024, Seed: 1}), tcs)
	})
}

// BenchmarkEngineIngestConsumers measures the consumer-bus tax on the
// ingest hot path: the same batch stream with no consumers versus the
// full analysis plane (timeline plus all four runners) attached. The bus
// publishes on window close and each consumer runs on its own goroutine
// behind a drop-oldest buffer, so the attached configuration must track
// the bare one — the slow-consumer policy exists precisely so analyses
// never tax the merge path (TestTelemetryOverheadWithinBudget enforces
// the 10% budget).
func BenchmarkEngineIngestConsumers(b *testing.B) {
	loadFixtures(b)
	recs := fixK8s.records
	const batch = 4096
	run := func(b *testing.B, cons []core.ConsumerSpec) {
		e := core.NewEngine(core.Config{Window: time.Hour, Shards: 4, Consumers: cons})
		defer e.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := i * batch % len(recs)
			end := off + batch
			if end > len(recs) {
				end = len(recs)
			}
			e.Ingest(recs[off:end])
		}
		b.StopTimer()
		if e.Flush(); e.Epoch() == 0 {
			b.Fatal("no windows completed")
		}
		b.ReportMetric(float64(int64(batch)*int64(b.N))/b.Elapsed().Seconds(), "records/s")
	}
	b.Run("consumers=off", func(b *testing.B) { run(b, nil) })
	b.Run("consumers=plane", func(b *testing.B) {
		run(b, runner.New(runner.Config{}).Consumers())
	})
}

// BenchmarkEngineIngestDecode measures the full INGEST path the analytics
// server runs per batch — wire frames decoded with flowlog.ReadBatch into
// one reused record buffer, handed straight to Engine.Ingest — and so pins
// the zero-alloc decode claim where it matters: allocs/op on this benchmark
// is the per-batch garbage of the hot path (the engine borrows the batch
// only for the call, so one buffer serves the whole stream).
func BenchmarkEngineIngestDecode(b *testing.B) {
	loadFixtures(b)
	recs := fixK8s.records
	var wire []byte
	for _, r := range recs {
		wire = flowlog.AppendBinary(wire, r)
	}
	const batch = 4096
	e := core.NewEngine(core.Config{Window: time.Hour, Shards: 4})
	src := bytes.NewReader(wire)
	rd := flowlog.NewReader(src)
	buf := make([]flowlog.Record, batch)
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(wire)
		for {
			n, err := rd.ReadBatch(buf)
			if n > 0 {
				e.Ingest(buf[:n])
				total += int64(n)
			}
			if err != nil {
				break
			}
		}
	}
	b.StopTimer()
	if e.Flush(); e.Epoch() == 0 {
		b.Fatal("no windows completed")
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "records/s")
}

// --- §2.1 rules: policy compilation -------------------------------------------

func BenchmarkPolicyCompile(b *testing.B) {
	loadFixtures(b)
	g := fixK8s.graph
	assign, err := segment.Run(segment.StrategyJaccardLouvain, g, segment.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := policy.Learn(g, assign)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip := r.CompileIPRules(1000)
		tags := r.CompileTagRules(1000)
		if ip.Total == 0 || tags.Total == 0 {
			b.Fatal("empty compilation")
		}
	}
}

// --- §2.1 higher-order policies -------------------------------------------------

func BenchmarkMonitorEvaluate(b *testing.B) {
	loadFixtures(b)
	g := fixK8s.graph
	assign, err := segment.Run(segment.StrategyJaccardLouvain, g, segment.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := policy.Learn(g, assign)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.SimilarityPolicy{R: r}.Evaluate(g)
		policy.ProportionalityPolicy{R: r}.Evaluate(g, g)
	}
}

// --- Ablations (DESIGN.md) ------------------------------------------------------

// BenchmarkAblationCollapse sweeps the heavy-hitter threshold: collapse
// cost and resulting graph size trade off against completeness.
func BenchmarkAblationCollapse(b *testing.B) {
	loadFixtures(b)
	full := graph.Build(fixK8s.records, graph.BuilderOptions{Facet: graph.FacetIP})
	for _, th := range []float64{0.0001, 0.001, 0.01} {
		b.Run(thName(th), func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				c := full.Collapse(graph.CollapseOptions{Threshold: th})
				nodes = c.NumNodes()
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

func thName(th float64) string {
	switch th {
	case 0.0001:
		return "threshold=0.01pct"
	case 0.001:
		return "threshold=0.1pct"
	default:
		return "threshold=1pct"
	}
}

// BenchmarkAblationMinhash compares exact Jaccard scoring against the
// MinHash sketch — the paper's open issue about super-quadratic cost.
func BenchmarkAblationMinhash(b *testing.B) {
	loadFixtures(b)
	g := fixK8s.graph
	b.Run("exact", func(b *testing.B) { benchSegmentOn(b, g, segment.StrategyJaccardLouvain) })
	b.Run("minhash", func(b *testing.B) { benchSegmentOn(b, g, segment.StrategyMinHashLouvain) })
}

func benchSegmentOn(b *testing.B, g *graph.Graph, s segment.Strategy) {
	for i := 0; i < b.N; i++ {
		if _, err := segment.Run(s, g, segment.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBatch sweeps the ingest minibatch size.
func BenchmarkAblationBatch(b *testing.B) {
	for _, batch := range []int{256, 4096, 65536} {
		b.Run(batchName(batch), func(b *testing.B) { benchIngest(b, 4, batch) })
	}
}

func batchName(n int) string {
	switch n {
	case 256:
		return "batch=256"
	case 4096:
		return "batch=4k"
	default:
		return "batch=64k"
	}
}

// BenchmarkAblationResolution sweeps the Louvain resolution parameter —
// the knob for the paper's open question about segmentation granularity.
func BenchmarkAblationResolution(b *testing.B) {
	loadFixtures(b)
	g := fixK8s.graph
	for _, gamma := range []float64{0.5, 1, 2, 4} {
		b.Run(gammaName(gamma), func(b *testing.B) {
			var segs int
			for i := 0; i < b.N; i++ {
				a, err := segment.Run(segment.StrategyJaccardLouvain, g, segment.Options{Resolution: gamma})
				if err != nil {
					b.Fatal(err)
				}
				segs = a.NumSegments()
			}
			b.ReportMetric(float64(segs), "segments")
		})
	}
}

func gammaName(g float64) string {
	switch g {
	case 0.5:
		return "gamma=0.5"
	case 1:
		return "gamma=1"
	case 2:
		return "gamma=2"
	default:
		return "gamma=4"
	}
}

// --- the analysis plane: one default runner over one sealed window ---------

// minuteWindows returns a preset cluster's first n one-minute windows, as
// the engine seals them.
func minuteWindows(tb testing.TB, preset string, scale float64, n int) []*graph.Graph {
	tb.Helper()
	spec, err := cluster.Preset(preset, scale)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := cluster.New(spec)
	if err != nil {
		tb.Fatal(err)
	}
	var out []*graph.Graph
	w := core.NewWindower(time.Minute, graph.BuilderOptions{})
	w.OnComplete = func(g *graph.Graph) { out = append(out, g) }
	_, err = c.Run(benchStart, n, nicsim.CollectorFunc(func(batch []flowlog.Record) error {
		for _, r := range batch {
			w.Add(r)
		}
		return nil
	}))
	if err != nil {
		tb.Fatal(err)
	}
	w.Flush()
	return out
}

// BenchmarkRunnerWindow times what the plane pays per sealed window and
// runner — OnSnapshot plus the marshal of its result, the call behind
// bench's runner.<name>.ms_per_window rows — on ~170-node k8spaas and
// 33-node µserviceBench minute windows. One op is one window.
func BenchmarkRunnerWindow(b *testing.B) {
	for _, ds := range []struct{ name, preset string }{
		{"k8spaas", "k8spaas"}, {"usvc", "microservicebench"},
	} {
		windows := minuteWindows(b, ds.preset, 0.25, 10)
		for i, r := range runner.DefaultRunners() {
			b.Run(ds.name+"/"+r.Name(), func(b *testing.B) {
				r := runner.DefaultRunners()[i]
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					r.OnSnapshot(uint64(n+1), windows[n%len(windows)])
					if _, err := json.Marshal(r.Result()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlaneWindow times the default analysis plane as the daemon runs
// it: one shared DefaultRunners() set behind runner.Plane.Restore (timeline
// append, then every runner's OnSnapshot, Result and marshal), so the
// segment and policy runners segment each window once and the summarize
// runner's drift step reuses the shared views. BenchmarkRunnerWindow times
// each runner standalone instead. One op is one window: ~170-node k8spaas
// and 33-node µserviceBench minutes at ×0.25, and ~570-node KQuery×0.3
// minutes, which -short skips (generation takes tens of seconds).
func BenchmarkPlaneWindow(b *testing.B) {
	for _, ds := range []struct {
		name, preset string
		scale        float64
		minutes      int
	}{{"k8spaas", "k8spaas", 0.25, 10}, {"usvc", "microservicebench", 0.25, 10}, {"kquery", "kquery", 0.3, 3}} {
		if ds.name == "kquery" && testing.Short() {
			b.Run(ds.name, func(b *testing.B) { b.Skip("KQuery×0.3 generation is too slow for -short") })
			continue
		}
		windows := minuteWindows(b, ds.preset, ds.scale, ds.minutes)
		b.Run(ds.name, func(b *testing.B) {
			plane := runner.New(runner.Config{History: 8})
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				plane.Restore(uint64(n+1), windows[n%len(windows)])
			}
		})
	}
}
