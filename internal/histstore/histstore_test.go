package histstore

import (
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
	"cloudgraph/internal/telemetry"
)

var t0 = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)

// win builds a deterministic one-minute window graph at the given offset.
// Varying bytes per window makes record contents distinguishable.
func win(offset time.Duration, bytes uint64) *graph.Graph {
	m := graphtest.NewModel(graph.FacetIP)
	m.Add(graph.IPNode(netip.MustParseAddr("10.0.0.1")),
		graph.IPNode(netip.MustParseAddr("10.0.0.2")),
		graph.Counters{Bytes: bytes, Packets: 1, Conns: 1})
	m.Add(graph.IPNode(netip.MustParseAddr("10.0.0.2")),
		graph.IPNode(netip.MustParseAddr("10.0.0.3")),
		graph.Counters{Bytes: bytes / 2, Packets: 1, Conns: 1})
	m.Start = t0.Add(offset)
	m.End = m.Start.Add(time.Minute)
	return m.Graph()
}

// diffEmpty reports whether d records no structural or traffic change.
func diffEmpty(d graph.Delta) bool {
	return len(d.AddedNodes) == 0 && len(d.RemovedNodes) == 0 &&
		len(d.AddedPairs) == 0 && len(d.RemovedPairs) == 0 && d.ByteChange == 0
}

// appendN appends n minute windows starting at epoch 1.
func appendN(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Append(uint64(i+1), win(time.Duration(i)*time.Minute, uint64(100+i))); err != nil {
			t.Fatalf("append epoch %d: %v", i+1, err)
		}
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SegmentWindows: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 10) // spans two sealed segments plus an active one
	for i := 0; i < 10; i++ {
		ep := uint64(i + 1)
		g, err := s.Get(ep)
		if err != nil {
			t.Fatalf("Get(%d): %v", ep, err)
		}
		want := win(time.Duration(i)*time.Minute, uint64(100+i))
		if d := graph.Diff(want, g); !diffEmpty(d) {
			t.Fatalf("Get(%d) differs from appended window", ep)
		}
		if !g.Start.Equal(want.Start) || !g.End.Equal(want.End) {
			t.Fatalf("Get(%d) spans %s..%s, want %s..%s", ep, g.Start, g.End, want.Start, want.End)
		}
	}
	if _, err := s.Get(11); err != ErrNotFound {
		t.Fatalf("Get(11) = %v, want ErrNotFound", err)
	}
	if _, err := s.Get(0); err != ErrNotFound {
		t.Fatalf("Get(0) = %v, want ErrNotFound", err)
	}
	if lo, hi, ok := s.Epochs(); !ok || lo != 1 || hi != 10 {
		t.Fatalf("Epochs() = %d..%d %v, want 1..10", lo, hi, ok)
	}
	// Time resolution: the middle of window i maps to epoch i+1.
	for i := 0; i < 10; i++ {
		ep, ok := s.EpochAt(t0.Add(time.Duration(i)*time.Minute + 30*time.Second))
		if !ok || ep != uint64(i+1) {
			t.Fatalf("EpochAt(window %d middle) = %d %v, want %d", i, ep, ok, i+1)
		}
	}
	if _, ok := s.EpochAt(t0.Add(-time.Minute)); ok {
		t.Fatal("EpochAt before all data resolved")
	}
	if _, ok := s.EpochAt(t0.Add(time.Hour)); ok {
		t.Fatal("EpochAt after all data resolved")
	}
}

func TestAppendRejectsNonIncreasingEpoch(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 2)
	if err := s.Append(2, win(time.Hour, 1)); err == nil {
		t.Fatal("duplicate epoch accepted")
	}
	if err := s.Append(1, win(time.Hour, 1)); err == nil {
		t.Fatal("regressing epoch accepted")
	}
}

func TestReopenRecoversAllRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentWindows: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{SegmentWindows: 4, NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	var epochs []uint64
	if err := s2.Replay(func(ep uint64, _ *graph.Graph) error {
		epochs = append(epochs, ep)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 10 {
		t.Fatalf("replayed %d windows, want 10", len(epochs))
	}
	if !sort.SliceIsSorted(epochs, func(i, j int) bool { return epochs[i] < epochs[j] }) {
		t.Fatal("replay out of epoch order")
	}
	if s2.LastEpoch() != 10 {
		t.Fatalf("LastEpoch = %d, want 10", s2.LastEpoch())
	}
	// The store keeps accepting appends where it left off.
	if err := s2.Append(11, win(10*time.Minute, 200)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if g, err := s2.Get(11); err != nil || g.TotalTraffic().Bytes != 300 {
		t.Fatalf("Get(11) after reopen: %v", err)
	}
}

// newestSegFile returns the path of the newest window segment on disk.
func newestSegFile(t *testing.T, dir string) string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".seg") {
			names = append(names, de.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no segment files")
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1])
}

func TestTornTailTruncatedRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentWindows: 100, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the active segment's tail: the last record tears.
	path := newestSegFile(t, dir)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{SegmentWindows: 100, NoSync: true})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s2.Close()
	n := 0
	if err := s2.Replay(func(ep uint64, g *graph.Graph) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d windows after tear, want 4 (last record lost)", n)
	}
	if s2.LastEpoch() != 4 {
		t.Fatalf("LastEpoch after tear = %d, want 4", s2.LastEpoch())
	}
	// Appending over the truncated tail works and survives another open.
	if err := s2.Append(5, win(4*time.Minute, 999)); err != nil {
		t.Fatal(err)
	}
	if g, err := s2.Get(5); err != nil || g.TotalTraffic().Bytes != 999+999/2 {
		t.Fatalf("rewritten epoch 5 unreadable: %v", err)
	}
}

func TestTornTailGarbageExtended(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentWindows: 100, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := newestSegFile(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage that looks like a plausible frame head but cannot checksum.
	if _, err := f.Write([]byte{0x20, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{SegmentWindows: 100, NoSync: true})
	if err != nil {
		t.Fatalf("open with garbage tail: %v", err)
	}
	defer s2.Close()
	n := 0
	if err := s2.Replay(func(ep uint64, g *graph.Graph) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("replayed %d windows, want all 5 (garbage past the last record dropped)", n)
	}
}

func TestManifestTmpRollForward(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentWindows: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 4) // exactly one sealed segment
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between manifest save and rename: move the sealed
	// segment back to its .tmp name.
	path := newestSegFile(t, dir)
	if err := os.Rename(path, path+".tmp"); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{SegmentWindows: 4, NoSync: true})
	if err != nil {
		t.Fatalf("open with pending rename: %v", err)
	}
	defer s2.Close()
	if lo, hi, ok := s2.Epochs(); !ok || lo != 1 || hi != 4 {
		t.Fatalf("Epochs after roll-forward = %d..%d %v, want 1..4", lo, hi, ok)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("rolled-forward segment missing: %v", err)
	}
}

func TestOrphanSegmentSwept(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentWindows: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A stray tmp and a foreign-named seg copy (epochs covered by the
	// manifest) must both be deleted, not adopted.
	if err := os.WriteFile(filepath.Join(dir, "seg-99999999.seg.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(newestSegFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "seg-99999998.seg")
	if err := os.WriteFile(orphan, src, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{SegmentWindows: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("covered orphan segment not swept")
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-99999999.seg.tmp")); !os.IsNotExist(err) {
		t.Fatal("stray tmp not swept")
	}
	if lo, hi, ok := s2.Epochs(); !ok || lo != 1 || hi != 4 {
		t.Fatalf("Epochs after sweep = %d..%d %v, want 1..4", lo, hi, ok)
	}
}

// clusterWindows builds an hour of minute windows from the deterministic
// cluster simulator, the same way the engine would.
func clusterWindows(t *testing.T) ([]flowlog.Record, []*graph.Graph) {
	t.Helper()
	c, err := cluster.New(cluster.MicroserviceBench(0.2))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	byMinute := make(map[int64][]flowlog.Record)
	for _, r := range recs {
		k := r.Time.Truncate(time.Minute).UnixNano()
		byMinute[k] = append(byMinute[k], r)
	}
	keys := make([]int64, 0, len(byMinute))
	for k := range byMinute {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var wins []*graph.Graph
	for _, k := range keys {
		g := graph.Build(byMinute[k], graph.BuilderOptions{})
		g.Start = time.Unix(0, k).UTC()
		g.End = g.Start.Add(time.Minute)
		wins = append(wins, g)
	}
	return recs, wins
}

func TestCompactionReducesBytesAndPreservesHistory(t *testing.T) {
	recs, wins := clusterWindows(t)
	dir := t.TempDir()
	// Retention shorter than the data span: the whole hour of minute
	// windows ages out, but only complete buckets compact. Append a
	// sentinel window two hours later so the hour bucket closes.
	s, err := Open(dir, Options{SegmentWindows: 6, Retention: 30 * time.Minute, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, g := range wins {
		if err := s.Append(uint64(i+1), g); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := win(3*time.Hour, 1)
	if err := s.Append(uint64(len(wins)+1), sentinel); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	before := s.Stats()

	st, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rollups == 0 || st.RecordsIn == 0 {
		t.Fatalf("compaction did nothing: %+v", st)
	}
	if st.BytesAfter >= st.BytesBefore {
		t.Fatalf("compaction grew the store: %d -> %d bytes", st.BytesBefore, st.BytesAfter)
	}
	t.Logf("compaction: %d window records -> %d roll-ups, %d -> %d bytes (%.1fx smaller)",
		st.RecordsIn, st.Rollups, st.BytesBefore, st.BytesAfter, float64(st.BytesBefore)/float64(st.BytesAfter))
	after := s.Stats()
	if after.Bytes >= before.Bytes {
		t.Fatalf("on-disk bytes not reduced: %d -> %d", before.Bytes, after.Bytes)
	}
	if after.RollupRecords == 0 {
		t.Fatal("no roll-up records after compaction")
	}

	// Every compacted epoch still resolves; the roll-up it lands in is
	// Diff-empty against the direct build of the hour (timeline property).
	direct := graph.Build(recs, graph.BuilderOptions{})
	g, err := s.Get(1)
	if err != nil {
		t.Fatalf("Get(1) after compaction: %v", err)
	}
	if d := graph.Diff(direct, g); !diffEmpty(d) {
		t.Fatalf("roll-up != direct hour build: +%d/-%d nodes, drift %g",
			len(d.AddedNodes), len(d.RemovedNodes), d.ByteChange)
	}
	if d := graph.Diff(g, direct); !diffEmpty(d) {
		t.Fatal("roll-up != direct hour build in reverse")
	}
	// The sentinel window is residue or active and stays at window
	// resolution.
	sg, err := s.Get(uint64(len(wins) + 1))
	if err != nil {
		t.Fatal(err)
	}
	if d := graph.Diff(sentinel, sg); !diffEmpty(d) {
		t.Fatal("retained window mutated by compaction")
	}
	// Compacting again with nothing aged out is a no-op.
	st2, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Rollups != 0 {
		t.Fatalf("second compaction produced %d rollups, want 0", st2.Rollups)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cloudgraph_histstore_segments",
		"cloudgraph_histstore_bytes",
		"cloudgraph_histstore_compactions_total 1",
		"cloudgraph_histstore_bytes_reclaimed_total",
		"cloudgraph_histstore_compaction_seconds_count 1",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestRecoveryGaugeOnlyFromReplay: the recovery gauge holds the duration of
// Replay, the startup recovery pass; the bounded replays behind disk
// QUERYs leave it alone but count toward windows_replayed_total.
func TestRecoveryGaugeOnlyFromReplay(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 3)
	reg := telemetry.NewRegistry()
	s.Instrument(reg, telemetry.Label{Key: "tenant", Value: "acme"})
	noop := func(uint64, *graph.Graph) error { return nil }
	s.recoveryMilli.Store(-1)
	if err := s.Replay(noop); err != nil {
		t.Fatal(err)
	}
	if ms := s.recoveryMilli.Load(); ms < 0 {
		t.Fatal("Replay did not record the recovery duration")
	}
	s.recoveryMilli.Store(4242)
	if err := s.ReplayUpTo(2, noop); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cloudgraph_histstore_recovery_seconds{tenant="acme"} 4.242`,
		`cloudgraph_histstore_windows_replayed_total{tenant="acme"} 5`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, b.String())
		}
	}
}

func TestCompactionSurvivesRestart(t *testing.T) {
	_, wins := clusterWindows(t)
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(dir, Options{SegmentWindows: 6, Retention: 30 * time.Minute, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	for i, g := range wins {
		if err := s.Append(uint64(i+1), g); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(uint64(len(wins)+1), win(3*time.Hour, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	g1, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open()
	defer s2.Close()
	g2, err := s2.Get(1)
	if err != nil {
		t.Fatalf("Get(1) after restart: %v", err)
	}
	if d := graph.Diff(g1, g2); !diffEmpty(d) {
		t.Fatal("roll-up changed across restart")
	}
	// A second compaction after restart must not disturb the roll-ups.
	if _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	g3, err := s2.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if d := graph.Diff(g2, g3); !diffEmpty(d) {
		t.Fatal("re-compaction after restart changed the roll-up")
	}
}

// foldHour folds windows, in order, into one hour roll-up with the
// bucket rule compaction uses.
func foldHour(t *testing.T, windows []*graph.Graph) *graph.Graph {
	t.Helper()
	var acc *graph.Graph
	for _, g := range windows {
		if acc != nil && !acc.Start.Equal(graph.RollupStart(g.Start, rollupBucket)) {
			t.Fatalf("window at %s leaves the hour bucket at %s", g.Start, acc.Start)
		}
		acc = graph.FoldRollup(acc, g, rollupBucket)
	}
	return acc
}

// TestReplayRollupEqualsUninterrupted is the restart half of the
// TestRollupEqualsDirectBuild property: the windows replayed from the
// store after a crash must fold into the same hour roll-up as the
// windows that were appended before it.
func TestReplayRollupEqualsUninterrupted(t *testing.T) {
	_, wins := clusterWindows(t)
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentWindows: 8, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range wins {
		if err := s.Append(uint64(i+1), g); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // crash point: only the store survives
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{SegmentWindows: 8, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var replayed []*graph.Graph
	if err := s2.Replay(func(ep uint64, g *graph.Graph) error {
		if ep != uint64(len(replayed)+1) {
			t.Fatalf("replayed epoch %d after %d windows", ep, len(replayed))
		}
		replayed = append(replayed, g)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(wins) {
		t.Fatalf("replayed %d windows, appended %d", len(replayed), len(wins))
	}

	a, b := foldHour(t, wins), foldHour(t, replayed)
	if d := graph.Diff(a, b); !diffEmpty(d) {
		t.Fatal("rollup differs after replay rebuild")
	}
	if d := graph.Diff(b, a); !diffEmpty(d) {
		t.Fatal("rollup differs after replay rebuild (reverse)")
	}
}
