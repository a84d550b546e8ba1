package timeline

import (
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
	"cloudgraph/internal/nicsim"
	"cloudgraph/internal/store"
	"cloudgraph/internal/telemetry"
)

var t0 = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)

// win builds a one-record window graph starting at the given offset.
func win(offset time.Duration, bytes uint64) *graph.Graph {
	m := graphtest.NewModel(graph.FacetIP)
	m.Add(graph.IPNode(netip.MustParseAddr("10.0.0.1")),
		graph.IPNode(netip.MustParseAddr("10.0.0.2")),
		graph.Counters{Bytes: bytes, Packets: 1, Conns: 1})
	m.Start = t0.Add(offset)
	m.End = m.Start.Add(time.Minute)
	return m.Graph()
}

func TestTimelineSnapshotsAndRetention(t *testing.T) {
	tl := New(Config{Retention: 3, History: 3, Rollup: time.Hour})
	var snaps []*Snapshot
	for i := 0; i < 5; i++ {
		snaps = append(snaps, tl.Append(uint64(i+1), win(time.Duration(i)*time.Minute, 100)))
	}
	// Copy-on-write: the first snapshot still sees exactly one window even
	// though the timeline has advanced past it.
	if got := len(snaps[0].Windows); got != 1 {
		t.Fatalf("snapshot 1 sees %d windows after later appends, want 1", got)
	}
	if snaps[0].Epoch != 1 || snaps[0].Window != snaps[0].Windows[0] {
		t.Fatal("snapshot 1 lost its identity")
	}
	// Retention: the latest view holds only the newest 3 windows.
	latest := tl.Latest()
	if latest.Epoch != 5 || len(latest.Windows) != 3 {
		t.Fatalf("latest = epoch %d with %d windows, want epoch 5 with 3", latest.Epoch, len(latest.Windows))
	}
	// History: epochs 1 and 2 evicted, 3..5 addressable.
	if tl.At(1) != nil || tl.At(2) != nil {
		t.Fatal("evicted epochs still addressable")
	}
	for ep := uint64(3); ep <= 5; ep++ {
		s := tl.At(ep)
		if s == nil || s.Epoch != ep {
			t.Fatalf("At(%d) = %v", ep, s)
		}
	}
	if oldest, newest := tl.Epochs(); oldest != 3 || newest != 5 {
		t.Fatalf("Epochs() = %d..%d, want 3..5", oldest, newest)
	}
	if tl.At(99) != nil {
		t.Fatal("unknown epoch resolved")
	}
}

func TestTimelineRollupSealing(t *testing.T) {
	reg := telemetry.NewRegistry()
	tl := New(Config{Rollup: time.Hour, Telemetry: reg})
	// Two windows in hour 0, one in hour 1: appending the hour-1 window
	// must seal hour 0.
	tl.Append(1, win(0, 100))
	s := tl.Append(2, win(10*time.Minute, 50))
	if len(s.Rollups) != 0 {
		t.Fatalf("in-progress bucket leaked into snapshot: %d rollups", len(s.Rollups))
	}
	s = tl.Append(3, win(time.Hour, 70))
	if len(s.Rollups) != 1 {
		t.Fatalf("rollups after bucket advance = %d, want 1", len(s.Rollups))
	}
	r := s.Rollups[0]
	if !r.Start.Equal(t0) || !r.End.Equal(t0.Add(time.Hour)) {
		t.Fatalf("sealed rollup spans %s..%s, want the hour bucket", r.Start, r.End)
	}
	if tc := r.TotalTraffic(); tc.Bytes != 150 {
		t.Fatalf("sealed rollup bytes = %d, want 150 (merged members)", tc.Bytes)
	}
	// Seal flushes the final partial bucket without minting a new epoch.
	tl.Seal()
	latest := tl.Latest()
	if latest.Epoch != 3 || len(latest.Rollups) != 2 {
		t.Fatalf("after Seal: epoch %d, %d rollups, want epoch 3 with 2", latest.Epoch, len(latest.Rollups))
	}
	if tl.At(3) != latest {
		t.Fatal("Seal must re-issue the latest epoch's snapshot in history")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cloudgraph_timeline_rollups_sealed_total 2",
		"cloudgraph_timeline_rollups_held 2",
		"cloudgraph_timeline_snapshots_held 3",
		"cloudgraph_timeline_rollup_seal_seconds",
		"cloudgraph_timeline_bytes_retained",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("telemetry missing %q:\n%s", want, b.String())
		}
	}
}

// diffEmpty reports whether d records no structural or traffic change.
func diffEmpty(d graph.Delta) bool {
	return len(d.AddedNodes) == 0 && len(d.RemovedNodes) == 0 &&
		len(d.AddedPairs) == 0 && len(d.RemovedPairs) == 0 && d.ByteChange == 0
}

// TestRollupEqualsDirectBuild is the roll-up correctness property: merging
// the minute-window graphs of a seeded cluster replay yields exactly the
// graph built directly over the same records. Roll-ups are therefore
// lossless re-aggregations, not approximations.
func TestRollupEqualsDirectBuild(t *testing.T) {
	c, err := cluster.New(cluster.MicroserviceBench(0.2))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("cluster emitted no records")
	}

	// Minute windows, built the same way the engine builds them.
	byMinute := make(map[int64][]flowlog.Record)
	for _, r := range recs {
		byMinute[r.Time.Truncate(time.Minute).UnixNano()] = append(
			byMinute[r.Time.Truncate(time.Minute).UnixNano()], r)
	}
	keys := make([]int64, 0, len(byMinute))
	for k := range byMinute {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) < 2 {
		t.Fatalf("replay spans %d minute windows; property needs several", len(keys))
	}

	tl := New(Config{Rollup: time.Hour, Retention: -1})
	for i, k := range keys {
		g := graph.Build(byMinute[k], graph.BuilderOptions{})
		g.Start = time.Unix(0, k).UTC()
		g.End = g.Start.Add(time.Minute)
		tl.Append(uint64(i+1), g)
	}
	tl.Seal()
	snap := tl.Latest()
	if len(snap.Rollups) != 1 {
		t.Fatalf("hour of minutes sealed into %d rollups, want 1", len(snap.Rollups))
	}
	direct := graph.Build(recs, graph.BuilderOptions{})
	if d := graph.Diff(direct, snap.Rollups[0]); !diffEmpty(d) {
		t.Fatalf("rollup != direct build: +%d/-%d nodes, +%d/-%d pairs, drift %g",
			len(d.AddedNodes), len(d.RemovedNodes), len(d.AddedPairs), len(d.RemovedPairs), d.ByteChange)
	}
	if d := graph.Diff(snap.Rollups[0], direct); !diffEmpty(d) {
		t.Fatal("rollup != direct build in reverse direction")
	}
}

// TestRollupOverlappingWindowsEqualsDirectBuild extends the roll-up
// property to overlapping-interval inputs: two window graphs spanning the
// same hour (the shape sharded ingest partials take) must merge into a
// roll-up identical to the direct build — including per-edge time series,
// where samples whose interval starts collide must sum rather than
// duplicate.
func TestRollupOverlappingWindowsEqualsDirectBuild(t *testing.T) {
	c, err := cluster.New(cluster.MicroserviceBench(0.2))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	// Split the stream by flow key into two halves covering the same
	// intervals — exactly how the engine shards, so both reports of a flow
	// stay together and dedup matches the serial build.
	var a, b []flowlog.Record
	for _, r := range recs {
		if r.Key().A.Port()%2 == 0 {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
	}
	ga := graph.Build(a, graph.BuilderOptions{KeepSeries: true})
	gb := graph.Build(b, graph.BuilderOptions{KeepSeries: true})

	tl := New(Config{Rollup: time.Hour, Retention: -1})
	tl.Append(1, ga)
	tl.Append(2, gb)
	tl.Seal()
	snap := tl.Latest()
	if len(snap.Rollups) != 1 {
		t.Fatalf("overlapping windows sealed into %d rollups, want 1", len(snap.Rollups))
	}
	roll := snap.Rollups[0]

	direct := graph.Build(recs, graph.BuilderOptions{KeepSeries: true})
	if d := graph.Diff(direct, roll); !diffEmpty(d) {
		t.Fatalf("rollup != direct build: +%d/-%d nodes, +%d/-%d pairs, drift %g",
			len(d.AddedNodes), len(d.RemovedNodes), len(d.AddedPairs), len(d.RemovedPairs), d.ByteChange)
	}
	if d := graph.Diff(roll, direct); !diffEmpty(d) {
		t.Fatal("rollup != direct build in reverse direction")
	}
	// The series must fold, not concatenate: every directed edge of the
	// roll-up carries exactly the direct build's samples.
	bad := 0
	direct.EachOut(func(src, dst graph.Node, e *graph.Edge) {
		re := roll.OutEdge(src, dst)
		if re == nil || len(re.Series) != len(e.Series) {
			bad++
			return
		}
		for i := range e.Series {
			if re.Series[i] != e.Series[i] {
				bad++
				return
			}
		}
	})
	if bad > 0 {
		t.Fatalf("%d edges have duplicated or drifted series after overlapping merge", bad)
	}
}

// k8spaasMinutes returns the first n one-minute windows of a k8spaas
// cluster at scale 0.25 (≈160 nodes, ≈3K directed edges each), sealed as
// the engine seals them, by a graph.Builder.
func k8spaasMinutes(t *testing.T, n int) []*graph.Graph {
	t.Helper()
	spec, err := cluster.Preset("k8spaas", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []*graph.Graph
	for i := 0; i < n; i++ {
		var recs []flowlog.Record
		start := t0.Add(time.Duration(i) * time.Minute)
		if _, err := c.Run(start, 1, nicsim.CollectorFunc(func(batch []flowlog.Record) error {
			recs = append(recs, batch...)
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		g := graph.Build(recs, graph.BuilderOptions{})
		g.Start, g.End = start, start.Add(time.Minute)
		out = append(out, g)
	}
	return out
}

// TestRollupAppendAllocBudget pins what folding a sealed k8spaas minute
// window into a roll-up bucket allocates per append: ≈19 merge-joining in
// CSR, against ≈80 merging into a map-backed bucket and thousands
// rebuilding ≈3K edges as maps.
func TestRollupAppendAllocBudget(t *testing.T) {
	const budget = 40
	windows := k8spaasMinutes(t, 25)
	tl := New(Config{Rollup: 10 * time.Minute})
	for i, g := range windows[:20] {
		tl.Append(uint64(i+1), g)
	}
	if got := len(tl.Latest().Rollups); got != 1 {
		t.Fatalf("20 minute windows sealed %d ten-minute roll-ups before the last bucket, want 1", got)
	}
	// Fold the remaining minutes into the open bucket, one per run.
	next := 20
	avg := testing.AllocsPerRun(4, func() {
		tl.Append(uint64(next+1), windows[next])
		next++
	})
	if avg > budget {
		t.Fatalf("appending a k8spaas minute window into a roll-up bucket allocates %.0f times, budget %d", avg, budget)
	}
	t.Logf("roll-up append: %.0f allocs per window (budget %d)", avg, budget)
}

// TestRollupSealObservesFoldTime pins what cloudgraph_timeline_rollup_seal_seconds
// measures: the time folding a bucket's member windows, accumulated over
// the bucket and observed when it seals — not only the seal itself, which
// no longer does any work. A bucket of 60 k8spaas minute windows must
// observe more than 10× what a one-window bucket does (the median of five,
// so one slow fold cannot decide it).
func TestRollupSealObservesFoldTime(t *testing.T) {
	windows := k8spaasMinutes(t, 10)
	reg := telemetry.NewRegistry()
	tl := New(Config{Rollup: time.Hour, Retention: 4, History: 4, Telemetry: reg})
	var epoch uint64
	var sums []float64
	appendAt := func(at time.Time, g *graph.Graph) {
		// An independent copy of a window, moved to at.
		cp, err := store.DecodeGraph(store.EncodeGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		cp.Start, cp.End = at, at.Add(time.Minute)
		epoch++
		tl.Append(epoch, cp)
		sums = append(sums, tl.telRollup.Sum())
	}
	for i := 0; i < 60; i++ {
		appendAt(t0.Add(time.Duration(i)*time.Minute), windows[i%len(windows)])
	}
	for h := 1; h <= 6; h++ {
		appendAt(t0.Add(time.Duration(h)*time.Hour), windows[h%len(windows)])
	}
	// The first hour-1 append sealed the 60-window bucket; each later one
	// sealed the one-window bucket before it.
	full := sums[60]
	var single []float64
	for i := 61; i < len(sums); i++ {
		single = append(single, sums[i]-sums[i-1])
	}
	sort.Float64s(single)
	median := single[len(single)/2]
	if full <= 10*median {
		t.Fatalf("60-window bucket observed %.3gs, one-window bucket %.3gs (median of %d): want more than 10×",
			full, median, len(single))
	}
	t.Logf("60-window bucket %.3gms, one-window bucket %.3gms", full*1e3, median*1e3)
}

// TestTimelineRetentionEdgeStaysQueryable pins the eviction boundary: with
// History=N, the snapshot sitting exactly at the retention edge (the oldest
// of the N) must stay addressable by epoch until the next append advances
// the timeline — an off-by-one that trimmed to N-1, or trimmed before
// publishing, would break QUERY <analysis> <oldest-epoch>.
func TestTimelineRetentionEdgeStaysQueryable(t *testing.T) {
	tl := New(Config{Retention: 3, History: 3, Rollup: time.Hour})
	for i := 1; i <= 3; i++ {
		tl.Append(uint64(i), win(time.Duration(i)*time.Minute, 100))
	}
	// Exactly at capacity: the oldest epoch is the retention edge and must
	// answer queries.
	if oldest, newest := tl.Epochs(); oldest != 1 || newest != 3 {
		t.Fatalf("Epochs() = %d..%d, want 1..3", oldest, newest)
	}
	edge := tl.At(1)
	if edge == nil || edge.Epoch != 1 || len(edge.Windows) != 1 {
		t.Fatalf("snapshot at retention edge not queryable: %+v", edge)
	}
	// Seal mints no epoch, so it must not advance eviction either.
	tl.Seal()
	if tl.At(1) == nil {
		t.Fatal("Seal evicted the retention-edge snapshot")
	}
	// The next advance shifts the edge by exactly one: epoch 1 goes, epoch
	// 2 becomes the new edge and stays queryable.
	tl.Append(4, win(4*time.Minute, 100))
	if tl.At(1) != nil {
		t.Fatal("evicted epoch still addressable after advance")
	}
	next := tl.At(2)
	if next == nil || next.Epoch != 2 {
		t.Fatalf("new retention edge lost: %+v", next)
	}
	if oldest, newest := tl.Epochs(); oldest != 2 || newest != 4 {
		t.Fatalf("Epochs() after advance = %d..%d, want 2..4", oldest, newest)
	}
	// The edge snapshot keeps its copy-on-write view even after eviction
	// of its predecessor.
	if next.Window != next.Windows[len(next.Windows)-1] {
		t.Fatal("retention-edge snapshot lost its identity")
	}
}
