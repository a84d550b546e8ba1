package core

import (
	"bytes"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/nicsim"
	"cloudgraph/internal/policy"
	"cloudgraph/internal/segment"
	"cloudgraph/internal/store"
	"cloudgraph/internal/summarize"
	"cloudgraph/internal/telemetry"
)

var (
	ipA = netip.MustParseAddr("10.0.0.1")
	ipB = netip.MustParseAddr("10.0.0.2")
	t0  = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)
)

func rec(at time.Time, lport uint16, bytes uint64) flowlog.Record {
	return flowlog.Record{
		Time: at, LocalIP: ipA, LocalPort: lport, RemoteIP: ipB, RemotePort: 443,
		PacketsSent: 1, BytesSent: bytes,
	}
}

// collecting returns an engine for cfg with one more bus consumer that
// records every published window; windows returns them in epoch order
// once Flush has drained the bus.
func collecting(cfg Config) (e *Engine, windows func() []*graph.Graph) {
	var mu sync.Mutex
	var got []*graph.Graph
	cfg.Consumers = append(cfg.Consumers, ConsumerSpec{Name: "collect", Fn: func(_ uint64, g *graph.Graph) {
		mu.Lock()
		got = append(got, g)
		mu.Unlock()
	}})
	return NewEngine(cfg), func() []*graph.Graph {
		mu.Lock()
		defer mu.Unlock()
		return append([]*graph.Graph(nil), got...)
	}
}

// flushed flushes e and returns every window it has published.
func flushed(e *Engine, windows func() []*graph.Graph) []*graph.Graph {
	e.Flush()
	return windows()
}

func TestWindowerSplitsByHour(t *testing.T) {
	w := NewWindower(time.Hour, graph.BuilderOptions{})
	w.Add(rec(t0.Add(5*time.Minute), 1, 100))
	w.Add(rec(t0.Add(50*time.Minute), 2, 200))
	w.Add(rec(t0.Add(70*time.Minute), 3, 300)) // next hour: closes first
	if w.Pending() != 1 {
		t.Errorf("pending = %d, want 1 (first hour closed)", w.Pending())
	}
	gs := w.Flush()
	if len(gs) != 2 {
		t.Fatalf("windows = %d, want 2", len(gs))
	}
	if gs[0].TotalTraffic().Bytes != 300 || gs[1].TotalTraffic().Bytes != 300 {
		t.Errorf("window traffic = %d, %d", gs[0].TotalTraffic().Bytes, gs[1].TotalTraffic().Bytes)
	}
	if !gs[0].Start.Equal(t0) {
		t.Errorf("window 0 start = %v", gs[0].Start)
	}
}

func TestWindowerOnComplete(t *testing.T) {
	w := NewWindower(time.Hour, graph.BuilderOptions{})
	var got []*graph.Graph
	w.OnComplete = func(g *graph.Graph) { got = append(got, g) }
	w.Add(rec(t0, 1, 1))
	w.Add(rec(t0.Add(time.Hour), 2, 2))
	if len(got) != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", len(got))
	}
	w.Flush()
	if len(got) != 2 {
		t.Errorf("after Flush: %d, want 2", len(got))
	}
}

func TestWindowerIgnoresInvalid(t *testing.T) {
	w := NewWindower(time.Hour, graph.BuilderOptions{})
	w.Add(flowlog.Record{})
	if w.Pending() != 0 {
		t.Error("invalid record opened a window")
	}
}

func TestEngineEndToEnd(t *testing.T) {
	// Drive a small synthetic cluster through the engine for three hours:
	// learn a baseline on hour one, monitor an attack in hour three.
	spec := cluster.Spec{
		Name: "core-e2e", Seed: 5,
		Roles: []cluster.RoleSpec{
			{Name: "fe", Count: 4, Port: 443},
			{Name: "be", Count: 3, Port: 9000},
			{Name: "client", Count: 10, External: true},
		},
		Links: []cluster.LinkSpec{
			{Src: "client", Dst: "fe", FlowsPerMin: 6, Fanout: 2, FwdBytes: 500, RevBytes: 8000},
			{Src: "fe", Dst: "be", FlowsPerMin: 20, Fanout: -1, FwdBytes: 1000, RevBytes: 3000},
		},
	}
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	e, published := collecting(Config{Window: time.Hour})
	defer e.Close()

	// Hours 1 and 2: clean traffic.
	if _, err := c.Run(t0, 120, e); err != nil {
		t.Fatal(err)
	}
	// Hour 3: a frontend goes rogue and scans its own role's peers —
	// fe-fe contact never occurs in the baseline, so every probe violates
	// the learned reachability.
	c.AddAttack(cluster.PortScan{
		AttackerRole: "fe", AttackerIdx: 0, TargetRole: "fe",
		PortsPerMin: 30, Start: t0.Add(2 * time.Hour), Duration: time.Hour,
	})
	if _, err := c.Run(t0.Add(2*time.Hour), 60, e); err != nil {
		t.Fatal(err)
	}
	windows := flushed(e, published)
	if len(windows) != 3 || e.Epoch() != 3 {
		t.Fatalf("windows = %d (epoch %d), want 3", len(windows), e.Epoch())
	}

	base, err := policy.LearnBaseline(segment.StrategyJaccardLouvain, windows[0], segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Assign.NumSegments() < 2 {
		t.Errorf("segments = %d, want at least client/fe/be structure", base.Assign.NumSegments())
	}

	// Hour two should be mostly quiet; hour three should alert.
	repClean := base.Monitor(windows[1])
	repAttack := base.Monitor(windows[2])
	if repClean == nil || repAttack == nil {
		t.Fatal("Monitor returned nil after Learn")
	}
	if len(repAttack.Violations) == 0 {
		t.Error("attack window produced no reachability violations")
	}
	if repAttack.Alerts == 0 {
		t.Error("attack alerts were all suppressed")
	}

	// Anomaly scoring sees the drift, though with only 3 windows it
	// cannot flag; just confirm the drift ordering.
	scores := summarize.ScoreWindows(windows, summarize.AnomalyOptions{MinHistory: 1})
	if len(scores) != 3 {
		t.Fatalf("scores = %d", len(scores))
	}
	if scores[2].NewPairs == 0 {
		t.Error("attack window should add new communicating pairs")
	}

	if summarize.Summarize(windows[2]).Stats.Nodes == 0 {
		t.Error("summary empty")
	}
	if e.Cost().Records == 0 {
		t.Error("meter recorded nothing")
	}
}

func TestEngineMonitorBeforeLearn(t *testing.T) {
	// An engine that has published nothing, and nothing learned: a nil
	// policy.Baseline (a realm before LEARN) monitors nothing.
	e, published := collecting(Config{})
	defer e.Close()
	if ws := flushed(e, published); len(ws) != 0 || e.Epoch() != 0 {
		t.Errorf("empty engine published %d windows (epoch %d)", len(ws), e.Epoch())
	}
	var b *policy.Baseline
	if b.Monitor(graph.New(graph.FacetIP)) != nil {
		t.Error("Monitor before Learn should be nil")
	}
}

func TestEngineMaxWindows(t *testing.T) {
	// The engine no longer caps a window history of its own (the bounded
	// history is the realm timeline, a bus consumer): all five windows are
	// published, in epoch order, and none is dropped on the way.
	var mu sync.Mutex
	var epochs []uint64
	e := NewEngine(Config{Window: time.Hour, Consumers: []ConsumerSpec{{Name: "collect", Fn: func(epoch uint64, _ *graph.Graph) {
		mu.Lock()
		epochs = append(epochs, epoch)
		mu.Unlock()
	}}}})
	defer e.Close()
	for h := 0; h < 5; h++ {
		e.Ingest([]flowlog.Record{rec(t0.Add(time.Duration(h)*time.Hour), uint16(h+1), 10)})
	}
	e.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(epochs) != 5 || e.Epoch() != 5 {
		t.Fatalf("published windows = %d (epoch %d), want 5", len(epochs), e.Epoch())
	}
	for i, ep := range epochs {
		if ep != uint64(i+1) {
			t.Fatalf("epochs = %v, want 1..5", epochs)
		}
	}
	for _, st := range e.Bus().Stats() {
		if st.Dropped != 0 {
			t.Errorf("consumer %s dropped %d windows", st.Name, st.Dropped)
		}
	}
}

func TestEngineCollapseApplied(t *testing.T) {
	e, published := collecting(Config{
		Window:   time.Hour,
		Collapse: graph.CollapseOptions{Threshold: 0.01},
	})
	defer e.Close()
	recs := []flowlog.Record{rec(t0, 1, 1_000_000)}
	for i := 0; i < 300; i++ {
		r := flowlog.Record{
			Time: t0, LocalIP: ipA, LocalPort: uint16(1000 + i),
			RemoteIP: netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)}), RemotePort: 80,
			PacketsSent: 1, BytesSent: 10,
		}
		recs = append(recs, r)
	}
	e.Ingest(recs)
	ws := flushed(e, published)
	if len(ws) != 1 {
		t.Fatal("expected one window")
	}
	if !ws[0].HasNode(graph.Collapsed) {
		t.Error("collapse was not applied to the completed window")
	}
}

func TestEngineAsCollector(t *testing.T) {
	var _ nicsim.Collector = NewEngine(Config{})
}

func TestMonitorAlertsOnUnknownEndpoint(t *testing.T) {
	base := graph.New(graph.FacetIP)
	base.AddEdge(graph.IPNode(ipA), graph.IPNode(ipB), graph.Counters{Bytes: 1000, Conns: 1})
	b, err := policy.LearnBaseline(segment.StrategyJaccardLouvain, base, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// New window: ipA starts talking to a brand-new external endpoint.
	next := graph.New(graph.FacetIP)
	next.AddEdge(graph.IPNode(ipA), graph.IPNode(ipB), graph.Counters{Bytes: 1000, Conns: 1})
	c2 := graph.IPNode(netip.MustParseAddr("198.51.100.66"))
	next.AddEdge(graph.IPNode(ipA), c2, graph.Counters{Bytes: 1 << 30, Conns: 1})
	rep := b.Monitor(next)
	if rep == nil || len(rep.Violations) != 1 {
		t.Fatalf("violations = %+v", rep)
	}
	if len(rep.Unknown) != 1 || rep.Alerts != 1 {
		t.Errorf("unknown endpoint should alert: unknown=%d alerts=%d", len(rep.Unknown), rep.Alerts)
	}
}

func TestWindowerFlushDrains(t *testing.T) {
	// Regression: completed graphs used to accumulate in the Windower
	// forever, so every Flush re-returned the entire history and a
	// long-running process retained every window.
	w := NewWindower(time.Hour, graph.BuilderOptions{})
	w.Add(rec(t0, 1, 100))
	w.Add(rec(t0.Add(time.Hour), 2, 200))
	if got := len(w.Flush()); got != 2 {
		t.Fatalf("first Flush = %d windows, want 2", got)
	}
	if got := len(w.Flush()); got != 0 {
		t.Errorf("second Flush re-returned %d windows, want 0 (drained)", got)
	}
	if w.Retained() != 0 {
		t.Errorf("windower retains %d graphs after Flush", w.Retained())
	}
	// The windower stays usable after a drain.
	w.Add(rec(t0.Add(2*time.Hour), 3, 300))
	if got := len(w.Flush()); got != 1 {
		t.Errorf("Flush after drain = %d windows, want 1", got)
	}
}

func TestWindowerOnCompleteDoesNotRetain(t *testing.T) {
	// Regression: graphs delivered through OnComplete were also appended
	// to the internal done list, holding every window in memory twice.
	w := NewWindower(time.Hour, graph.BuilderOptions{})
	var got int
	w.OnComplete = func(*graph.Graph) { got++ }
	for h := 0; h < 6; h++ {
		w.Add(rec(t0.Add(time.Duration(h)*time.Hour), uint16(h+1), 10))
	}
	w.Flush()
	if got != 6 {
		t.Fatalf("OnComplete fired %d times, want 6", got)
	}
	if w.Retained() != 0 {
		t.Errorf("windower retains %d graphs alongside the OnComplete consumer", w.Retained())
	}
}

func TestEngineRetentionBoundedWithMaxWindows(t *testing.T) {
	// Regression for the same leak at engine level. The MaxWindows bound
	// is now zero: the engine is a pure window producer — every window
	// goes to the bus and nothing below it keeps window history.
	e, published := collecting(Config{Window: time.Hour})
	defer e.Close()
	for h := 0; h < 10; h++ {
		e.Ingest([]flowlog.Record{rec(t0.Add(time.Duration(h)*time.Hour), uint16(h+1), 10)})
	}
	if got := len(flushed(e, published)); got != 10 {
		t.Fatalf("published windows = %d, want 10", got)
	}
	for _, sh := range e.shards {
		if n := sh.windower.Retained(); n != 0 {
			t.Errorf("shard windower retains %d graphs, want 0", n)
		}
	}
	if len(e.pending) != 0 {
		t.Errorf("%d partial windows left pending after Flush", len(e.pending))
	}
}

// engineRecords builds a deterministic multi-window record stream with
// enough distinct flows to spread across shards, including double-reported
// intra-subscription flows that must deduplicate.
func engineRecords(t *testing.T, hours int) []flowlog.Record {
	t.Helper()
	var recs []flowlog.Record
	for h := 0; h < hours; h++ {
		for m := 0; m < 60; m += 5 {
			at := t0.Add(time.Duration(h)*time.Hour + time.Duration(m)*time.Minute)
			for i := 0; i < 40; i++ {
				r := flowlog.Record{
					Time:      at,
					LocalIP:   netip.AddrFrom4([4]byte{10, 0, byte(i / 8), byte(i%8 + 1)}),
					LocalPort: uint16(30000 + i), RemoteIP: netip.AddrFrom4([4]byte{10, 0, 9, byte(i%16 + 1)}),
					RemotePort:  443,
					PacketsSent: 2, BytesSent: uint64(100 * (i + 1)), PacketsRcvd: 1, BytesRcvd: 50,
				}
				recs = append(recs, r)
				if i%2 == 0 {
					recs = append(recs, r.Reverse()) // second NIC's report
				}
			}
		}
	}
	return recs
}

func TestEngineShardEquivalence(t *testing.T) {
	// The sharded hot path must be invisible in the output: same record
	// stream, same merged windows, at any shard width.
	recs := engineRecords(t, 3)
	base, basePublished := collecting(Config{Window: time.Hour, Shards: 1})
	defer base.Close()
	base.Ingest(recs)
	want := flushed(base, basePublished)
	if len(want) != 3 {
		t.Fatalf("single-shard windows = %d, want 3", len(want))
	}
	for _, shards := range []int{2, 4, 8} {
		e, published := collecting(Config{Window: time.Hour, Shards: shards})
		defer e.Close()
		for i := 0; i < len(recs); i += 97 { // minibatches, like the wire path
			end := i + 97
			if end > len(recs) {
				end = len(recs)
			}
			e.Ingest(recs[i:end])
		}
		got := flushed(e, published)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: windows = %d, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if !got[i].Start.Equal(want[i].Start) || !got[i].End.Equal(want[i].End) {
				t.Errorf("shards=%d window %d bounds = [%v,%v), want [%v,%v)",
					shards, i, got[i].Start, got[i].End, want[i].Start, want[i].End)
			}
			if got[i].NumNodes() != want[i].NumNodes() || got[i].NumEdges() != want[i].NumEdges() {
				t.Errorf("shards=%d window %d = %d nodes / %d edges, want %d / %d",
					shards, i, got[i].NumNodes(), got[i].NumEdges(), want[i].NumNodes(), want[i].NumEdges())
			}
			if gt, wt := got[i].TotalTraffic(), want[i].TotalTraffic(); gt != wt {
				t.Errorf("shards=%d window %d traffic = %+v, want %+v", shards, i, gt, wt)
			}
		}
		cost := e.Cost()
		if cost.Workers != shards || len(cost.Shards) != shards {
			t.Errorf("cost workers = %d shards = %d, want %d", cost.Workers, len(cost.Shards), shards)
		}
		var perShard int64
		for _, st := range cost.Shards {
			perShard += st.Records
		}
		if perShard != int64(len(recs)) {
			t.Errorf("per-shard records sum to %d, want %d", perShard, len(recs))
		}
	}
}

func TestEngineShardedConcurrentIngest(t *testing.T) {
	// Many goroutines ingesting one window's records concurrently (run
	// with -race): the merged window must cover the same nodes and edges
	// as a serial single-shard pass, and the meter must not lose records.
	recs := engineRecords(t, 1)
	serial, serialPublished := collecting(Config{Window: time.Hour})
	defer serial.Close()
	serial.Ingest(recs)
	want := flushed(serial, serialPublished)[0]

	e, published := collecting(Config{Window: time.Hour, Shards: 4})
	defer e.Close()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 50; i < len(recs); i += workers * 50 {
				end := i + 50
				if end > len(recs) {
					end = len(recs)
				}
				e.Ingest(recs[i:end])
			}
		}(w)
	}
	wg.Wait()
	ws := flushed(e, published)
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1", len(ws))
	}
	if ws[0].NumNodes() != want.NumNodes() || ws[0].NumEdges() != want.NumEdges() {
		t.Errorf("concurrent window = %d nodes / %d edges, want %d / %d",
			ws[0].NumNodes(), ws[0].NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if got := e.Cost().Records; got != int64(len(recs)) {
		t.Errorf("meter records = %d, want %d", got, len(recs))
	}
}

func TestMonitorBaselinePinnedAcrossTrim(t *testing.T) {
	// Regression: Monitor used e.windows[0] as the proportionality base,
	// which silently became a different window once the engine trimmed its
	// history. The base is pinned in the learned policy.Baseline, whatever
	// the engine publishes (and any history drops) afterwards.
	e, published := collecting(Config{Window: time.Hour})
	defer e.Close()
	e.Ingest([]flowlog.Record{rec(t0, 1, 1000)})
	ws := flushed(e, published)
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1", len(ws))
	}
	base, err := policy.LearnBaseline(segment.StrategyJaccardLouvain, ws[0], segment.Options{})
	if err != nil {
		t.Fatal(err)
	}

	next := graph.New(graph.FacetIP)
	next.AddEdge(graph.IPNode(ipA), graph.IPNode(ipB), graph.Counters{Bytes: 5000, Conns: 1})
	before := base.Monitor(next)
	if before == nil || len(before.Growth) == 0 {
		t.Fatalf("no growth assessment before trim: %+v", before)
	}

	// Push much-louder windows through after the Learn window.
	for h := 1; h < 5; h++ {
		e.Ingest([]flowlog.Record{rec(t0.Add(time.Duration(h)*time.Hour), uint16(h), 900000)})
	}
	if got := len(flushed(e, published)); got != 5 {
		t.Fatalf("published windows = %d, want 5", got)
	}

	after := base.Monitor(next)
	if after == nil || len(after.Growth) != len(before.Growth) {
		t.Fatalf("growth assessment changed shape after trim: %+v vs %+v", after, before)
	}
	for i := range before.Growth {
		if after.Growth[i] != before.Growth[i] {
			t.Errorf("growth[%d] drifted after trim: %+v vs %+v", i, after.Growth[i], before.Growth[i])
		}
	}
	if before.Growth[0].BaseBytes != 1000 {
		t.Errorf("baseline bytes = %d, want the Learn window's 1000", before.Growth[0].BaseBytes)
	}
}

func TestEngineOnWindowHook(t *testing.T) {
	// The OnWindow config hook is gone; a per-window func subscribed to the
	// engine's bus takes its place and fires once per window by Flush.
	var mu sync.Mutex
	var got []*graph.Graph
	e := NewEngine(Config{Window: time.Hour})
	defer e.Close()
	e.Subscribe(ConsumerSpec{Name: "hook", Fn: func(_ uint64, g *graph.Graph) {
		mu.Lock()
		got = append(got, g)
		mu.Unlock()
	}})
	e.Ingest([]flowlog.Record{rec(t0, 1, 10)})
	e.Ingest([]flowlog.Record{rec(t0.Add(time.Hour), 2, 10)})
	e.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Errorf("OnWindow fired %d times, want 2", len(got))
	}
}

// TestWindowerLateRecordBoundary pins what happens either side of the
// newest window's start. A record older than the newest one seen but inside
// the newest window is not late: it folds in. A record before that start is
// late: its window already closed, so it opens a second builder for the same
// start (later late records for it share that builder), and the next close
// emits a second graph for that start.
func TestWindowerLateRecordBoundary(t *testing.T) {
	w := NewWindower(time.Hour, graph.BuilderOptions{})
	var got []*graph.Graph
	w.OnComplete = func(g *graph.Graph) { got = append(got, g) }
	hour1 := t0.Add(time.Hour)

	w.Add(rec(t0.Add(5*time.Minute), 1, 100))
	w.Add(rec(hour1.Add(10*time.Minute), 2, 200)) // closes hour 0
	if len(got) != 1 || w.Pending() != 1 || w.Late() != 0 {
		t.Fatalf("after advancing: %d closed, %d open, %d late; want 1, 1, 0", len(got), w.Pending(), w.Late())
	}

	w.Add(rec(hour1, 3, 400)) // on the boundary: the open window's first instant
	if w.Pending() != 1 || w.Late() != 0 {
		t.Fatalf("record at the open window's start: %d open, %d late; want 1, 0", w.Pending(), w.Late())
	}
	w.Add(rec(hour1.Add(-time.Nanosecond), 4, 800)) // one tick before it: hour 0, already closed
	if w.Pending() != 2 || w.Late() != 1 {
		t.Fatalf("record before the open window's start: %d open, %d late; want 2, 1", w.Pending(), w.Late())
	}
	w.Add(rec(t0.Add(30*time.Minute), 5, 1600)) // late again: joins the reopened hour 0
	if w.Pending() != 2 || w.Late() != 2 || len(got) != 1 {
		t.Fatalf("second late record: %d open, %d late, %d closed; want 2, 2, 1", w.Pending(), w.Late(), len(got))
	}

	w.Flush()
	if len(got) != 3 {
		t.Fatalf("windows emitted = %d, want 3 (hour 0 twice)", len(got))
	}
	wantStart := []time.Time{t0, t0, hour1}
	wantBytes := []uint64{100, 800 + 1600, 200 + 400}
	for i, g := range got {
		if !g.Start.Equal(wantStart[i]) || !g.End.Equal(wantStart[i].Add(time.Hour)) || g.TotalTraffic().Bytes != wantBytes[i] {
			t.Errorf("window %d = [%v, %v) with %d bytes, want start %v and %d bytes",
				i, g.Start, g.End, g.TotalTraffic().Bytes, wantStart[i], wantBytes[i])
		}
	}
}

func TestEngineCountsLateRecords(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, published := collecting(Config{Window: time.Hour, Telemetry: reg})
	defer e.Close()
	e.Ingest([]flowlog.Record{rec(t0.Add(time.Hour), 1, 10), rec(t0.Add(61*time.Minute), 2, 10)})
	e.Ingest([]flowlog.Record{rec(t0.Add(59*time.Minute), 3, 10), {}, rec(t0.Add(2*time.Hour), 4, 10)})
	late := reg.Counter("cloudgraph_core_late_records_total",
		"records older than the newest window their shard had reached",
		telemetry.Label{Key: "shard", Value: "0"})
	if late.Value() != 1 {
		t.Errorf("late records counter = %d, want 1", late.Value())
	}
	if got := len(flushed(e, published)); got != 3 {
		t.Errorf("windows = %d, want 3 (the late record still opens hour 0)", got)
	}
}

func presetHour(t testing.TB, name string, scale float64) []flowlog.Record {
	t.Helper()
	spec, err := cluster.Preset(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestEngineShardedMatchesWindower is sharded==single to the byte: preset
// traffic through the engine at 1, 2 and 4 shards — per-shard builders
// sealing to CSR, merge-joined across shards — must publish windows whose
// store encoding and per-edge series equal those of one Windower over the
// same stream. The windows are collected through a bus consumer, which must
// not have dropped any.
func TestEngineShardedMatchesWindower(t *testing.T) {
	for _, preset := range []string{"microservicebench", "k8spaas"} {
		recs := presetHour(t, preset, 0.02)
		opts := graph.BuilderOptions{KeepSeries: true}
		w := NewWindower(10*time.Minute, opts)
		for _, r := range recs {
			w.Add(r)
		}
		want := w.Flush()
		if len(want) != 6 {
			t.Fatalf("%s: reference windows = %d, want 6", preset, len(want))
		}
		for _, shards := range []int{1, 2, 4} {
			e, published := collecting(Config{Window: 10 * time.Minute, Shards: shards, KeepSeries: true})
			for off := 0; off < len(recs); off += 1000 {
				e.Ingest(recs[off:min(off+1000, len(recs))])
			}
			got := flushed(e, published)
			e.Close()
			for _, st := range e.Bus().Stats() {
				if st.Dropped != 0 {
					t.Fatalf("%s shards=%d: bus consumer %s dropped %d windows", preset, shards, st.Name, st.Dropped)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s shards=%d: windows = %d, want %d", preset, shards, len(got), len(want))
			}
			for i := range want {
				if !got[i].Frozen() {
					t.Errorf("%s shards=%d window %d: published in map form", preset, shards, i)
				}
				if !bytes.Equal(store.EncodeGraph(got[i]), store.EncodeGraph(want[i])) {
					t.Errorf("%s shards=%d window %d: store encoding differs from the single windower's", preset, shards, i)
				}
				want[i].EachOut(func(src, dst graph.Node, e *graph.Edge) {
					if ge := got[i].OutEdge(src, dst); ge == nil || !reflect.DeepEqual(ge.Series, e.Series) {
						t.Errorf("%s shards=%d window %d edge %v->%v: series differ", preset, shards, i, src, dst)
					}
				})
			}
		}
	}
}

// TestEngineIngestAllocBudget pins the open window's allocation claim: once
// the first window has sealed and its builders are recycled, Engine.Ingest
// allocates per sealed window, not per record or per flow.
func TestEngineIngestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests four usvc hours")
	}
	recs := presetHour(t, "microservicebench", 0.25)
	e := NewEngine(Config{Window: time.Hour, Shards: 2})
	defer e.Close()
	scratch := make([]flowlog.Record, 0, 4096)
	pass := func(hour int) {
		for off := 0; off < len(recs); off += cap(scratch) {
			scratch = scratch[:0]
			for _, r := range recs[off:min(off+cap(scratch), len(recs))] {
				r.Time = r.Time.Add(time.Duration(hour) * time.Hour)
				scratch = append(scratch, r)
			}
			e.Ingest(scratch)
		}
	}
	pass(0)
	pass(1) // seals hour 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass(2)
	pass(3)
	runtime.ReadMemStats(&after)
	perRec := float64(after.Mallocs-before.Mallocs) / float64(2*len(recs))
	t.Logf("%d allocations over %d records: %.5f per record", after.Mallocs-before.Mallocs, 2*len(recs), perRec)
	if perRec > 0.01 {
		t.Errorf("steady-state ingest allocates %.4f times per record, budget 0.01", perRec)
	}
}
