package timeline

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
	"cloudgraph/internal/nicsim"
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

// resolves reports whether at resolves to want, failing the test when it
// resolves to anything else.
func resolves(t *testing.T, tl *Timeline, at time.Time, want uint64) bool {
	t.Helper()
	ep, ok := tl.EpochAt(at)
	if ok && ep != want {
		t.Fatalf("EpochAt(%s) = %d, want %d", at, ep, want)
	}
	return ok
}

func TestTimelineSnapshotsAndRetention(t *testing.T) {
	tl := New(Config{Retention: 3})
	if tl.Latest() != nil || tl.Len() != 0 {
		t.Fatal("empty timeline holds a window")
	}
	if oldest, newest := tl.Epochs(); oldest != 0 || newest != 0 {
		t.Fatalf("empty Epochs() = %d..%d, want 0..0", oldest, newest)
	}
	var wins []*graph.Graph
	for i := 0; i < 5; i++ {
		wins = append(wins, win(time.Duration(i)*time.Minute, 100))
		tl.Append(uint64(i+1), wins[i])
	}
	// Retention: the latest window is the newest append, and the ring
	// holds only the newest 3 extents.
	if tl.Latest() != wins[4] || tl.Len() != 3 {
		t.Fatalf("latest is not window 5, or %d windows retained, want 3", tl.Len())
	}
	// History: epochs 1 and 2 evicted, 3..5 addressable.
	for ep := uint64(1); ep <= 2; ep++ {
		if resolves(t, tl, wins[ep-1].Start, ep) {
			t.Fatalf("evicted epoch %d still resolves", ep)
		}
	}
	for ep := uint64(3); ep <= 5; ep++ {
		if !resolves(t, tl, wins[ep-1].Start.Add(30*time.Second), ep) {
			t.Fatalf("epoch %d does not resolve", ep)
		}
	}
	if oldest, newest := tl.Epochs(); oldest != 3 || newest != 5 {
		t.Fatalf("Epochs() = %d..%d, want 3..5", oldest, newest)
	}
	if resolves(t, tl, wins[4].End, 0) {
		t.Fatal("an instant past the newest window resolved")
	}
}

// TestTimelineRetentionEdgeStaysQueryable pins the eviction boundary: with
// Retention=N, the window sitting exactly at the retention edge (the
// oldest of the N) must stay resolvable until the next append advances
// the timeline — an off-by-one that trimmed to N-1, or trimmed before
// publishing, would break QUERY <analysis> <oldest-time>.
func TestTimelineRetentionEdgeStaysQueryable(t *testing.T) {
	tl := New(Config{Retention: 3})
	for i := 1; i <= 3; i++ {
		tl.Append(uint64(i), win(time.Duration(i)*time.Minute, 100))
	}
	// Exactly at capacity: the oldest epoch is the retention edge and must
	// resolve, from the first instant of its window on.
	if oldest, newest := tl.Epochs(); oldest != 1 || newest != 3 {
		t.Fatalf("Epochs() = %d..%d, want 1..3", oldest, newest)
	}
	if !resolves(t, tl, t0.Add(time.Minute), 1) {
		t.Fatal("window at retention edge not resolvable")
	}
	// The next advance shifts the edge by exactly one: epoch 1 goes, epoch
	// 2 becomes the new edge and stays resolvable.
	tl.Append(4, win(4*time.Minute, 100))
	if resolves(t, tl, t0.Add(time.Minute), 1) {
		t.Fatal("evicted epoch still resolves after advance")
	}
	if !resolves(t, tl, t0.Add(2*time.Minute), 2) {
		t.Fatal("new retention edge lost")
	}
	if oldest, newest := tl.Epochs(); oldest != 2 || newest != 4 {
		t.Fatalf("Epochs() after advance = %d..%d, want 2..4", oldest, newest)
	}
}

// TestTimelineConcurrentReaders reads the timeline from several goroutines
// while the single writer appends past its retention, as QUERY, STATS and
// /graphz do while the bus delivers windows. Run under -race in CI.
func TestTimelineConcurrentReaders(t *testing.T) {
	const n, retention = 500, 8
	tl := New(Config{Retention: retention})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if oldest, newest := tl.Epochs(); newest != 0 && (oldest > newest || newest-oldest >= retention) {
					t.Errorf("Epochs() = %d..%d with retention %d", oldest, newest, retention)
					return
				}
				if tl.Len() > retention {
					t.Errorf("Len() = %d past retention %d", tl.Len(), retention)
					return
				}
				if g := tl.Latest(); g != nil {
					// The writer may evict g's epoch meanwhile, but its
					// start never resolves to another epoch.
					want := uint64(g.Start.Sub(t0)/time.Minute) + 1
					if ep, ok := tl.EpochAt(g.Start); ok && ep != want {
						t.Errorf("EpochAt(%s) = %d, want %d", g.Start, ep, want)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		tl.Append(uint64(i+1), win(time.Duration(i)*time.Minute, 100))
	}
	close(done)
	wg.Wait()
}

// k8spaasMinutes returns the first n one-minute windows of a k8spaas
// cluster at the given scale, built as the engine builds them.
func k8spaasMinutes(t *testing.T, n int, scale float64) []*graph.Graph {
	t.Helper()
	spec, err := cluster.Preset("k8spaas", scale)
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

// TestTimelineHoldsOnlyLatestWindow pins what the timeline keeps: the
// latest window graph and the extents of the retained ones, nothing per
// append once the ring is full.
func TestTimelineHoldsOnlyLatestWindow(t *testing.T) {
	const n, retention = 200, 96
	windows := k8spaasMinutes(t, n, 0.02)
	tl := New(Config{Retention: retention})
	for i, g := range windows {
		tl.Append(uint64(i+1), g)
	}
	if tl.Latest() != windows[n-1] {
		t.Fatal("Latest is not the 200th window")
	}
	if oldest, newest := tl.Epochs(); oldest != n-retention+1 || newest != n {
		t.Fatalf("Epochs() = %d..%d, want %d..%d", oldest, newest, n-retention+1, n)
	}
	if tl.Len() != retention {
		t.Fatalf("Len() = %d, want %d", tl.Len(), retention)
	}
	if !resolves(t, tl, windows[104].Start, 105) {
		t.Fatal("epoch 105's start does not resolve")
	}
	if resolves(t, tl, windows[103].Start, 104) {
		t.Fatal("evicted epoch 104's start still resolves")
	}
	next := n
	if avg := testing.AllocsPerRun(100, func() {
		tl.Append(uint64(next+1), windows[next%n])
		next++
	}); avg != 0 {
		t.Fatalf("Append with a full ring allocates %.1f times, want 0", avg)
	}
}
