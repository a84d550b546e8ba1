// Command benchreport measures the ingest hot path and the graph memory
// layout in-process and emits one BENCH_<date>.json — the perf trajectory
// record ROADMAP item 3 asks for. CI runs it as the bench artifact step;
// the repo checks in one baseline per PR that moves the numbers.
//
// Usage:
//
//	go run ./cmd/benchreport                 # print JSON to stdout
//	go run ./cmd/benchreport -o BENCH_$(date +%F).json
//
// The measurements are deliberately self-contained (no `go test -bench`
// parsing): a synthetic 100K-node hypersparse subscription for bytes/edge,
// and a wire-encoded replay of a seeded cluster hour for records/sec/core
// and allocs/record, so two runs on the same machine are comparable.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/histstore"
	"cloudgraph/internal/realm"
)

// Report is the BENCH_<date>.json schema. Bytes-per-edge figures count
// directed edges; the ratio is the map-form cost over the frozen CSR cost
// on the same graph, measured with runtime.MemStats around a double GC.
type Report struct {
	Date             string  `json:"date"`
	GoVersion        string  `json:"go_version"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	Records          int     `json:"records"`
	RecordsPerSec    float64 `json:"records_per_sec"`
	RecordsPerSecPer float64 `json:"records_per_sec_per_core"`
	AllocsPerRecord  float64 `json:"allocs_per_record_decode"`
	GraphNodes       int     `json:"graph_nodes"`
	GraphEdges       int     `json:"graph_directed_edges"`
	MapBytesPerEdge  float64 `json:"map_bytes_per_edge"`
	CSRBytesPerEdge  float64 `json:"csr_bytes_per_edge"`
	BytesPerEdgeGain float64 `json:"bytes_per_edge_gain"`
	// Durable history figures: the same cluster hour windowed by the
	// minute, appended to a histstore, replayed (the crash-recovery path),
	// and compacted into hour roll-ups.
	HistWindows          int     `json:"hist_windows"`
	HistBytesPerWindow   float64 `json:"hist_bytes_per_window_disk"`
	HistReplayPerSec     float64 `json:"hist_replay_windows_per_sec"`
	HistCompactBytesGain float64 `json:"hist_compaction_bytes_gain"`
	// Multi-tenant figures: the same hour pushed through a realm manager
	// with the stream round-robined across 1 and then 32 tenant realms —
	// the scheduler admission and COGS accounting are the only layers over
	// bare ingest — plus the COGS meter's per-tenant wire accounting at 32.
	TenantRecordsPerSec1  float64 `json:"tenant_records_per_sec_per_core_1"`
	TenantRecordsPerSec32 float64 `json:"tenant_records_per_sec_per_core_32"`
	TenantCOGSBytesPer32  float64 `json:"tenant_cogs_wire_bytes_per_tenant_32"`
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// synthSubscription mirrors the graph package's 100K-node benchmark shape:
// every node talks to a few hub services plus occasional random peers.
func synthSubscription(n int) *graph.Graph {
	g := graph.New(graph.FacetIP)
	rng := rand.New(rand.NewSource(42))
	addr := func(i int) graph.Node {
		return graph.IPNode(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}))
	}
	const hubs = 64
	for i := hubs; i < n; i++ {
		g.AddEdge(addr(i), addr(i%hubs), graph.Counters{Bytes: uint64(i), Packets: 2, Conns: 1})
		if rng.Intn(4) == 0 {
			g.AddEdge(addr(i), addr(hubs+rng.Intn(n-hubs)), graph.Counters{Bytes: 100, Packets: 1, Conns: 1})
		}
	}
	return g
}

func measureBytesPerEdge(r *Report) error {
	base := heapAlloc()
	g := synthSubscription(100_000)
	mapBytes := float64(heapAlloc() - base)
	r.GraphNodes = g.NumNodes()
	r.GraphEdges = g.NumDirectedEdges()
	g.Freeze()
	csrBytes := float64(heapAlloc() - base)
	runtime.KeepAlive(g)
	if mapBytes <= 0 || csrBytes <= 0 || r.GraphEdges == 0 {
		return fmt.Errorf("heap measurement unusable: map=%f csr=%f", mapBytes, csrBytes)
	}
	edges := float64(r.GraphEdges)
	r.MapBytesPerEdge = mapBytes / edges
	r.CSRBytesPerEdge = csrBytes / edges
	r.BytesPerEdgeGain = mapBytes / csrBytes
	return nil
}

func measureIngest(r *Report) ([]flowlog.Record, error) {
	spec, err := cluster.Preset("k8spaas", 0.25)
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(spec)
	if err != nil {
		return nil, err
	}
	recs, err := c.CollectHour(time.Unix(1700000000, 0).UTC().Truncate(time.Hour))
	if err != nil {
		return nil, err
	}
	var wire []byte
	for _, rec := range recs {
		wire = flowlog.AppendBinary(wire, rec)
	}
	r.Records = len(recs)

	// Decode allocs: steady-state batch decode must be allocation-free;
	// report the measured per-record figure rather than asserting, so a
	// regression is visible in the checked-in trajectory (the test gate in
	// internal/flowlog fails the build outright).
	src := bytes.NewReader(wire)
	rd := flowlog.NewReader(src)
	buf := make([]flowlog.Record, 4096)
	perStream := testing.AllocsPerRun(5, func() {
		src.Reset(wire)
		rd.Reset(src)
		for {
			if _, err := rd.ReadBatch(buf); err != nil {
				break
			}
		}
	})
	r.AllocsPerRecord = perStream / float64(len(recs))

	// Throughput: the full decode+ingest path, single goroutine, enough
	// passes to dominate engine startup.
	e := core.NewEngine(core.Config{Window: time.Hour, Shards: 4})
	const passes = 3
	start := time.Now()
	for p := 0; p < passes; p++ {
		src.Reset(wire)
		rd.Reset(src)
		for {
			n, err := rd.ReadBatch(buf)
			if n > 0 {
				e.Ingest(buf[:n])
			}
			if err != nil {
				break
			}
		}
	}
	elapsed := time.Since(start)
	if e.Flush(); e.Epoch() == 0 {
		return nil, fmt.Errorf("no windows completed")
	}
	r.RecordsPerSec = float64(passes*len(recs)) / elapsed.Seconds()
	// Single-goroutine ingest uses one core; per-core is the same figure,
	// kept as its own field so a future parallel driver can diverge.
	r.RecordsPerSecPer = r.RecordsPerSec
	return recs, nil
}

// measureHistory appends the cluster hour as minute windows to a durable
// history store, times a full replay (the crash-recovery startup path),
// and compacts the hour into a roll-up to report the on-disk reduction.
func measureHistory(r *Report, recs []flowlog.Record) error {
	var windows []*graph.Graph
	w := core.NewWindower(time.Minute, graph.BuilderOptions{})
	w.OnComplete = func(g *graph.Graph) {
		g.Freeze()
		windows = append(windows, g)
	}
	for _, rec := range recs {
		w.Add(rec)
	}
	w.Flush()
	if len(windows) < 10 {
		return fmt.Errorf("only %d minute windows", len(windows))
	}

	dir, err := os.MkdirTemp("", "benchhist")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// SegmentWindows 6 seals the full hour; a short retention plus the
	// sentinel window below makes the hour bucket compactable.
	hs, err := histstore.Open(dir, histstore.Options{
		SegmentWindows: 6,
		Retention:      30 * time.Minute,
		NoSync:         true,
	})
	if err != nil {
		return err
	}
	defer hs.Close()
	for i, g := range windows {
		if err := hs.Append(uint64(i+1), g); err != nil {
			return err
		}
	}
	r.HistWindows = len(windows)
	r.HistBytesPerWindow = float64(hs.Stats().Bytes) / float64(len(windows))

	// Replay rate: what recovery costs per recorded window.
	const passes = 3
	start := time.Now()
	for p := 0; p < passes; p++ {
		n := 0
		if err := hs.Replay(func(uint64, *graph.Graph) error { n++; return nil }); err != nil {
			return err
		}
		if n != len(windows) {
			return fmt.Errorf("replay saw %d of %d windows", n, len(windows))
		}
	}
	r.HistReplayPerSec = float64(passes*len(windows)) / time.Since(start).Seconds()

	// A sentinel past the hour closes the bucket so compaction can roll
	// the whole hour up.
	sentinel := graph.New(graph.FacetIP)
	sentinel.AddEdge(graph.IPNode(netip.MustParseAddr("10.9.9.9")),
		graph.IPNode(netip.MustParseAddr("10.9.9.10")),
		graph.Counters{Bytes: 1, Packets: 1, Conns: 1})
	sentinel.Start = windows[0].Start.Truncate(time.Hour).Add(3 * time.Hour)
	sentinel.End = sentinel.Start.Add(time.Minute)
	sentinel.Freeze()
	if err := hs.Append(uint64(len(windows)+1), sentinel); err != nil {
		return err
	}
	cs, err := hs.Compact()
	if err != nil {
		return err
	}
	if cs.Rollups == 0 || cs.BytesAfter == 0 {
		return fmt.Errorf("compaction rolled nothing up: %+v", cs)
	}
	r.HistCompactBytesGain = float64(cs.BytesBefore) / float64(cs.BytesAfter)
	return nil
}

// measureTenancy replays the cluster hour through a realm manager — the
// multi-tenant daemon's ingest shape — with the stream round-robined in
// batches across 1 and then 32 tenants, single goroutine, so the two
// rates bracket what tenancy admission and COGS metering cost over the
// bare-engine figure above. The 32-tenant run also reports the COGS
// meter's mean wire bytes per tenant.
func measureTenancy(r *Report, recs []flowlog.Record) error {
	const batch = 4096
	run := func(n int) (float64, int64, error) {
		m, err := realm.NewManager(realm.Config{Engine: core.Config{Window: time.Hour, Shards: 4}})
		if err != nil {
			return 0, 0, err
		}
		defer m.Close()
		realms := make([]*realm.Realm, n)
		if n == 1 {
			realms[0] = m.Default()
		} else {
			for i := range realms {
				if realms[i], err = m.Realm(fmt.Sprintf("tenant-%02d", i)); err != nil {
					return 0, 0, err
				}
			}
		}
		const passes = 3
		start := time.Now()
		for p := 0; p < passes; p++ {
			slot := 0
			for off := 0; off < len(recs); off += batch {
				end := off + batch
				if end > len(recs) {
					end = len(recs)
				}
				realms[slot%n].IngestTraced(recs[off:end], nil)
				slot++
			}
		}
		elapsed := time.Since(start)
		var wire int64
		for _, rr := range realms {
			rr.Flush()
			wire += rr.Cost().WireBytes
		}
		if wire == 0 {
			return 0, 0, fmt.Errorf("COGS metered no wire bytes across %d tenants", n)
		}
		return float64(passes*len(recs)) / elapsed.Seconds(), wire / int64(n), nil
	}
	rate1, _, err := run(1)
	if err != nil {
		return err
	}
	rate32, perTenant, err := run(32)
	if err != nil {
		return err
	}
	r.TenantRecordsPerSec1 = rate1
	r.TenantRecordsPerSec32 = rate32
	r.TenantCOGSBytesPer32 = float64(perTenant)
	return nil
}

func main() {
	out := flag.String("o", "", "write the report to this file instead of stdout")
	flag.Parse()
	r := &Report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if err := measureBytesPerEdge(r); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	recs, err := measureIngest(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	if err := measureHistory(r, recs); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	if err := measureTenancy(r, recs); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}
