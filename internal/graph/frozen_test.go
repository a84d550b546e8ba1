package graph

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// freezeClone builds an independent frozen copy of g (same facet, nodes,
// edges and series).
func freezeClone(g *Graph) *Graph {
	c := New(g.Facet)
	c.Start, c.End = g.Start, g.End
	g.EachNode(c.AddNode)
	g.EachOut(func(src, dst Node, e *Edge) {
		me := c.addDirected(src, dst, e.Counters)
		me.Series = append([]Sample(nil), e.Series...)
	})
	c.Freeze()
	return c
}

// TestFrozenEquivalence is the tentpole's gate: every read accessor, and the
// Merge/Diff/Collapse/adjacency analyses built on them, must return results
// byte-identical to the map-backed form. The CSR representation is an
// encoding change, never a semantic one.
func TestFrozenEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randRecords(rng)
		sortByTime(recs)
		m := Build(recs, BuilderOptions{Facet: FacetIP, KeepSeries: true})
		m.Thaw() // builders seal straight to CSR; the map form is the reference here
		fz := freezeClone(m)
		if !fz.Frozen() || m.Frozen() {
			t.Fatal("representation flags wrong")
		}

		if fz.NumNodes() != m.NumNodes() || fz.NumEdges() != m.NumEdges() ||
			fz.NumDirectedEdges() != m.NumDirectedEdges() || fz.Density() != m.Density() {
			return false
		}
		if !reflect.DeepEqual(fz.Nodes(), m.Nodes()) {
			return false
		}
		if !reflect.DeepEqual(fz.UndirectedEdges(), m.UndirectedEdges()) {
			return false
		}
		if fz.TotalTraffic() != m.TotalTraffic() {
			return false
		}
		for _, n := range m.Nodes() {
			if !fz.HasNode(n) || fz.Degree(n) != m.Degree(n) {
				return false
			}
			for _, met := range []Metric{Bytes, Packets, Conns} {
				if fz.NodeStrength(n, met) != m.NodeStrength(n, met) {
					return false
				}
			}
			if !reflect.DeepEqual(fz.Neighbors(n), m.Neighbors(n)) {
				return false
			}
		}
		// The index-space view is the same struct from either form and
		// agrees with the Node-keyed accessors.
		um, uf := m.Undirected(), fz.Undirected()
		if !reflect.DeepEqual(um, uf) {
			return false
		}
		if err := viewAgrees(m, um); err != nil {
			t.Error(err)
			return false
		}
		// Directed edges, counters and series agree pairwise.
		same := true
		m.EachOut(func(src, dst Node, e *Edge) {
			fe := fz.OutEdge(src, dst)
			if fe == nil || fe.Counters != e.Counters || !reflect.DeepEqual(fe.Series, e.Series) {
				same = false
			}
		})
		fz.EachOut(func(src, dst Node, e *Edge) {
			if m.OutEdge(src, dst) == nil {
				same = false
			}
		})
		if !same {
			return false
		}

		// The analyses: matrix export, stats, collapse, diff, merge.
		am, af := m.AdjacencyMatrix(Bytes), fz.AdjacencyMatrix(Bytes)
		if !reflect.DeepEqual(am, af) {
			return false
		}
		if m.ComputeStats() != fz.ComputeStats() {
			return false
		}
		cm := m.Collapse(CollapseOptions{Threshold: 0.01})
		cf := fz.Collapse(CollapseOptions{Threshold: 0.01})
		if !reflect.DeepEqual(cm.UndirectedEdges(), cf.UndirectedEdges()) ||
			!reflect.DeepEqual(cm.Nodes(), cf.Nodes()) {
			return false
		}
		if d := Diff(m, fz); d.ByteChange != 0 || len(d.AddedNodes)+len(d.RemovedNodes)+
			len(d.AddedPairs)+len(d.RemovedPairs) != 0 {
			return false
		}
		// Merge gives the same graph whichever form either side is in —
		// frozen into frozen merge-joins in CSR form and stays frozen, the
		// rest go through the maps. The first half of the stream shares
		// every interval with the whole, so the series collide on
		// Sample.Start and must sum.
		half := recs[:len(recs)/2]
		want := Build(half, BuilderOptions{Facet: FacetIP, KeepSeries: true})
		want.Thaw()
		want.Merge(m)
		for _, intoFrozen := range []bool{false, true} {
			for _, src := range []*Graph{m, fz} {
				into := Build(half, BuilderOptions{Facet: FacetIP, KeepSeries: true})
				if !intoFrozen {
					into.Thaw()
				}
				into.Merge(src)
				into.Merge(New(FacetIP)) // an empty map-form argument changes nothing
				if into.Frozen() != (intoFrozen && src.Frozen()) {
					t.Errorf("merge of frozen=%v into frozen=%v left frozen=%v", src.Frozen(), intoFrozen, into.Frozen())
					return false
				}
				if !sameContent(into, want) {
					return false
				}
			}
		}
		// The argument is only read: fz still equals its map twin.
		return sameContent(fz, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// sameContent reports whether two graphs, in either form, hold the same
// window, nodes, pair count, directed edges, counters and series.
func sameContent(a, b *Graph) bool {
	if a.Start != b.Start || a.End != b.End || a.NumEdges() != b.NumEdges() ||
		a.NumDirectedEdges() != b.NumDirectedEdges() || !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		return false
	}
	same := true
	a.EachOut(func(src, dst Node, e *Edge) {
		be := b.OutEdge(src, dst)
		if be == nil || be.Counters != e.Counters || !reflect.DeepEqual(be.Series, e.Series) {
			same = false
		}
	})
	return same
}

// viewAgrees checks an Undirected view against the graph it was built
// from: nodes in sorted order, rows strictly ascending (so no neighbour —
// and no self-loop — is listed twice), every row equal to Neighbors, Degree,
// NodeStrength and PairCounters, and the entry count equal to two per
// unordered pair plus one per self-loop (NumEdges counts pairs of distinct
// nodes only).
func viewAgrees(g *Graph, u *Undirected) error {
	if !reflect.DeepEqual(u.Nodes, g.Nodes()) || len(u.Off) != len(u.Nodes)+1 || len(u.Nbr) != len(u.Pair) {
		return fmt.Errorf("view shape: %d nodes, %d offsets, %d nbr, %d pair", len(u.Nodes), len(u.Off), len(u.Nbr), len(u.Pair))
	}
	selfLoops := 0
	for i, n := range u.Nodes {
		nbr, pair := u.Row(int32(i))
		if len(nbr) != g.Degree(n) {
			return fmt.Errorf("%v: row has %d entries, Degree %d", n, len(nbr), g.Degree(n))
		}
		want := g.Neighbors(n)
		var strength Counters
		for k, j := range nbr {
			if k > 0 && nbr[k-1] >= j {
				return fmt.Errorf("%v: row not strictly ascending at %d", n, k)
			}
			if _, ok := want[u.Nodes[j]]; !ok {
				return fmt.Errorf("%v: row lists %v, Neighbors does not", n, u.Nodes[j])
			}
			if pair[k] != g.PairCounters(n, u.Nodes[j]) {
				return fmt.Errorf("%v-%v: pair %+v, PairCounters %+v", n, u.Nodes[j], pair[k], g.PairCounters(n, u.Nodes[j]))
			}
			if int(j) == i {
				selfLoops++
			}
			strength.Add(pair[k])
		}
		for _, met := range []Metric{Bytes, Packets, Conns} {
			if strength.Get(met) != g.NodeStrength(n, met) {
				return fmt.Errorf("%v: row %v sum %d, NodeStrength %d", n, met, strength.Get(met), g.NodeStrength(n, met))
			}
		}
	}
	if len(u.Nbr) != 2*g.NumEdges()+selfLoops {
		return fmt.Errorf("%d entries for %d pairs and %d self-loops", len(u.Nbr), g.NumEdges(), selfLoops)
	}
	return nil
}

func TestFreezeThawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := randRecords(rng)
	sortByTime(recs)
	g := Build(recs, BuilderOptions{Facet: FacetIP, KeepSeries: true})
	wantEdges := g.UndirectedEdges()
	wantNodes := g.Nodes()
	wantPairs := g.NumEdges()

	g.Freeze()
	g.Freeze() // idempotent
	if !g.Frozen() {
		t.Fatal("not frozen after Freeze")
	}
	g.Thaw()
	if g.Frozen() {
		t.Fatal("still frozen after Thaw")
	}
	if g.NumEdges() != wantPairs {
		t.Fatalf("pair count %d after round trip, want %d", g.NumEdges(), wantPairs)
	}
	if !reflect.DeepEqual(g.Nodes(), wantNodes) || !reflect.DeepEqual(g.UndirectedEdges(), wantEdges) {
		t.Fatal("round trip changed graph content")
	}
}

func TestFrozenMutationThaws(t *testing.T) {
	a := IPNode(netip.MustParseAddr("10.0.0.1"))
	b := IPNode(netip.MustParseAddr("10.0.0.2"))
	c := IPNode(netip.MustParseAddr("10.0.0.3"))
	g := New(FacetIP)
	g.AddEdge(a, b, Counters{Bytes: 5})
	g.Freeze()
	g.AddEdge(b, c, Counters{Bytes: 7})
	if g.Frozen() {
		t.Fatal("mutation left the graph frozen")
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 || g.TotalTraffic().Bytes != 12 {
		t.Fatalf("post-thaw graph wrong: %d nodes %d pairs %d bytes",
			g.NumNodes(), g.NumEdges(), g.TotalTraffic().Bytes)
	}
}

// synthSubscription builds a hypersparse ~n-node subscription graph: every
// node talks to a handful of hub services plus a few random peers — the
// shape §3's 100K-node subscriptions take.
func synthSubscription(n int) *Graph {
	g := New(FacetIP)
	rng := rand.New(rand.NewSource(42))
	addr := func(i int) Node {
		return IPNode(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}))
	}
	const hubs = 64
	for i := hubs; i < n; i++ {
		g.AddEdge(addr(i), addr(i%hubs), Counters{Bytes: uint64(i), Packets: 2, Conns: 1})
		if rng.Intn(4) == 0 {
			g.AddEdge(addr(i), addr(hubs+rng.Intn(n-hubs)), Counters{Bytes: 100, Packets: 1, Conns: 1})
		}
	}
	return g
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFrozenBytesPerEdge pins the acceptance criterion: on a 100K-node
// synthetic subscription, freezing must cut the measured heap bytes per
// directed edge by at least 2x versus the map-backed form.
func TestFrozenBytesPerEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement on a 100K-node graph")
	}
	base := heapAlloc()
	g := synthSubscription(100_000)
	mapBytes := int64(heapAlloc() - base)
	edges := int64(g.NumDirectedEdges())
	g.Freeze()
	frozenBytes := int64(heapAlloc() - base)
	runtime.KeepAlive(g)
	if mapBytes <= 0 || frozenBytes <= 0 {
		t.Skipf("heap measurement unusable: map=%d frozen=%d", mapBytes, frozenBytes)
	}
	t.Logf("map: %d B (%d B/edge), frozen: %d B (%d B/edge), ratio %.1fx over %d directed edges",
		mapBytes, mapBytes/edges, frozenBytes, frozenBytes/edges,
		float64(mapBytes)/float64(frozenBytes), edges)
	if mapBytes < 2*frozenBytes {
		t.Fatalf("frozen form saves only %.2fx (map %d B, frozen %d B); want >= 2x",
			float64(mapBytes)/float64(frozenBytes), mapBytes, frozenBytes)
	}
}
