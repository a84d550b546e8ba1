package graph_test

import (
	"net/netip"
	"testing"
	"time"

	"cloudgraph/internal/flowlog"
	. "cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

var (
	ipA = netip.MustParseAddr("10.0.0.1")
	ipB = netip.MustParseAddr("10.0.0.2")
	ipC = netip.MustParseAddr("10.0.0.3")
	ipX = netip.MustParseAddr("203.0.113.9")
	t0  = time.Unix(1700000000, 0).UTC().Truncate(time.Minute)
)

func TestNodeString(t *testing.T) {
	cases := []struct {
		n    Node
		want string
	}{
		{IPNode(ipA), "10.0.0.1"},
		{IPPortNode(ipA, 443), "10.0.0.1:443"},
		{Node{Name: "frontend"}, "frontend"},
		{Collapsed, "(other)"},
		{Node{}, "(invalid)"},
	}
	for _, c := range cases {
		if got := c.n.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestNodeLessTotalOrder(t *testing.T) {
	ns := []Node{IPNode(ipA), IPNode(ipB), IPPortNode(ipA, 1), IPPortNode(ipA, 2), Node{Name: "a"}, Node{Name: "b"}}
	for i := range ns {
		for j := range ns {
			li, lj := ns[i].Less(ns[j]), ns[j].Less(ns[i])
			if i == j && (li || lj) {
				t.Errorf("node %v Less itself", ns[i])
			}
			if i != j && li == lj {
				t.Errorf("Less not antisymmetric for %v, %v", ns[i], ns[j])
			}
		}
	}
}

func TestGraphCounts(t *testing.T) {
	m := graphtest.NewModel(FacetIP)
	a, b, c := IPNode(ipA), IPNode(ipB), IPNode(ipC)
	m.Add(a, b, Counters{Bytes: 100, Packets: 10, Conns: 1})
	m.Add(b, a, Counters{Bytes: 50, Packets: 5})
	m.Add(a, c, Counters{Bytes: 7, Packets: 1, Conns: 1})
	g := m.Graph()

	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (unordered pairs)", g.NumEdges())
	}
	if got := graphtest.Of(g).PairCounters(a, b); got.Bytes != 150 || got.Packets != 15 {
		t.Errorf("PairCounters(a,b) = %+v", got)
	}
	if g.Degree(a) != 2 || g.Degree(c) != 1 {
		t.Errorf("degrees wrong: a=%d c=%d", g.Degree(a), g.Degree(c))
	}
	if got := g.NodeStrength(a, Bytes); got != 157 {
		t.Errorf("NodeStrength(a, Bytes) = %d, want 157", got)
	}
}

func TestUndirectedEdgesDedup(t *testing.T) {
	m := graphtest.NewModel(FacetIP)
	a, b := IPNode(ipA), IPNode(ipB)
	m.Add(a, b, Counters{Bytes: 100})
	m.Add(b, a, Counters{Bytes: 40})
	edges := m.Graph().UndirectedEdges()
	if len(edges) != 1 {
		t.Fatalf("UndirectedEdges len = %d, want 1", len(edges))
	}
	if edges[0].Bytes != 140 {
		t.Errorf("combined bytes = %d, want 140", edges[0].Bytes)
	}
	if !edges[0].A.Less(edges[0].B) {
		t.Error("undirected edge endpoints not canonically ordered")
	}
}

func TestUndirectedEdgesOneWay(t *testing.T) {
	m := graphtest.NewModel(FacetIP)
	// Only b->a exists; it must still be emitted exactly once.
	m.Add(IPNode(ipB), IPNode(ipA), Counters{Bytes: 9})
	edges := m.Graph().UndirectedEdges()
	if len(edges) != 1 || edges[0].Bytes != 9 {
		t.Fatalf("one-way UndirectedEdges = %+v", edges)
	}
}

func buildRecords() []flowlog.Record {
	// One flow A<->B double-reported, one flow A<->X single-reported.
	rAB := flowlog.Record{
		Time: t0, LocalIP: ipA, LocalPort: 50000, RemoteIP: ipB, RemotePort: 8080,
		PacketsSent: 10, PacketsRcvd: 6, BytesSent: 5000, BytesRcvd: 300,
	}
	rAX := flowlog.Record{
		Time: t0, LocalIP: ipA, LocalPort: 443, RemoteIP: ipX, RemotePort: 40000,
		PacketsSent: 2, PacketsRcvd: 3, BytesSent: 200, BytesRcvd: 900,
	}
	return []flowlog.Record{rAB, graphtest.Reverse(rAB), rAX}
}

func TestBuilderDeduplicatesDoubleReports(t *testing.T) {
	g := Build(buildRecords(), BuilderOptions{Facet: FacetIP})
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	ab := graphtest.Of(g).PairCounters(IPNode(ipA), IPNode(ipB))
	if ab.Bytes != 5300 {
		t.Errorf("A<->B bytes = %d, want 5300 (not double counted)", ab.Bytes)
	}
	if ab.Conns != 1 {
		t.Errorf("A<->B conns = %d, want 1", ab.Conns)
	}
	// Direction check: find directed edge carrying 5000 from A to B.
	var aToB uint64
	if e := g.OutEdge(IPNode(ipA), IPNode(ipB)); e != nil {
		aToB = e.Bytes
	}
	var bToA uint64
	if e := g.OutEdge(IPNode(ipB), IPNode(ipA)); e != nil {
		bToA = e.Bytes
	}
	if aToB+bToA != 5300 || (aToB != 5000 && bToA != 5000) {
		t.Errorf("directed split wrong: a->b=%d b->a=%d", aToB, bToA)
	}
}

// TestBuilderIntervalFlushAndSeries: one flow reported in three intervals
// counts as three connections, and the window spans all three intervals.
func TestBuilderIntervalFlushAndSeries(t *testing.T) {
	b := NewBuilder(BuilderOptions{Facet: FacetIP})
	rec := flowlog.Record{
		Time: t0, LocalIP: ipA, LocalPort: 1, RemoteIP: ipB, RemotePort: 2,
		PacketsSent: 1, BytesSent: 100,
	}
	b.AddValid(&rec)
	rec.Time = t0.Add(time.Minute)
	b.AddValid(&rec)
	rec.Time = t0.Add(2 * time.Minute)
	b.AddValid(&rec)
	g := b.Finish()

	pair := graphtest.Of(g).PairCounters(IPNode(ipA), IPNode(ipB))
	if pair.Bytes != 300 || pair.Conns != 3 {
		t.Errorf("pair counters = %+v, want 300 bytes / 3 conns", pair)
	}
	if g.Start != t0 || g.End != t0.Add(3*time.Minute) {
		t.Errorf("window = [%v, %v]", g.Start, g.End)
	}
}

func TestBuilderFacetIPPort(t *testing.T) {
	g := Build(buildRecords(), BuilderOptions{Facet: FacetIPPort})
	// IP-port facet keeps ports distinct: nodes are A:50000, B:8080, A:443, X:40000.
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	if !g.HasNode(IPPortNode(ipA, 443)) {
		t.Error("missing IP-port node 10.0.0.1:443")
	}
}

func TestBuilderIgnoresInvalid(t *testing.T) {
	if g := Build([]flowlog.Record{{}}, BuilderOptions{}); g.NumNodes() != 0 {
		t.Error("invalid record should be ignored")
	}
}

func TestCollapseHeavyHitters(t *testing.T) {
	m := graphtest.NewModel(FacetIP)
	hub := IPNode(ipA)
	m.Add(hub, IPNode(ipB), Counters{Bytes: 1_000_000, Packets: 1000, Conns: 10})
	// 2000 tiny remote clients, each well under 0.1% of total traffic.
	for i := 0; i < 2000; i++ {
		client := IPNode(netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)}))
		m.Add(client, hub, Counters{Bytes: 10, Packets: 1, Conns: 1})
	}
	g := m.Graph()
	c := g.Collapse(CollapseOptions{Threshold: DefaultCollapseThreshold})
	// hub, B and the single collapse bucket should remain.
	if c.NumNodes() != 3 {
		t.Fatalf("collapsed NumNodes = %d, want 3", c.NumNodes())
	}
	if !c.HasNode(Collapsed) {
		t.Fatal("collapse bucket missing")
	}
	bucket := graphtest.Of(c).PairCounters(Collapsed, hub)
	if bucket.Bytes != 20000 || bucket.Conns != 2000 {
		t.Errorf("bucket counters = %+v, want 20000 bytes / 2000 conns", bucket)
	}
	// Total traffic is preserved (nothing was internal to the bucket).
	if got, want := c.TotalTraffic().Bytes, g.TotalTraffic().Bytes; got != want {
		t.Errorf("total bytes changed by collapse: %d != %d", got, want)
	}
}

func TestCollapseKeepsProtectedNodes(t *testing.T) {
	m := graphtest.NewModel(FacetIP)
	m.Add(IPNode(ipA), IPNode(ipB), Counters{Bytes: 1_000_000})
	tiny := IPNode(ipC)
	m.Add(tiny, IPNode(ipA), Counters{Bytes: 1})
	c := m.Graph().Collapse(CollapseOptions{Keep: func(n Node) bool { return n == tiny }})
	if !c.HasNode(tiny) {
		t.Error("protected node was collapsed")
	}
	if c.HasNode(Collapsed) {
		t.Error("no unprotected node should have been collapsed")
	}
}

func TestCollapseAnyMetricSuffices(t *testing.T) {
	m := graphtest.NewModel(FacetIP)
	m.Add(IPNode(ipA), IPNode(ipB), Counters{Bytes: 1_000_000, Conns: 1})
	// ipC has negligible bytes but is a big share of connections.
	m.Add(IPNode(ipC), IPNode(ipA), Counters{Bytes: 1, Conns: 50})
	c := m.Graph().Collapse(CollapseOptions{Threshold: 0.01})
	if !c.HasNode(IPNode(ipC)) {
		t.Error("node significant on connections should survive collapse")
	}
}

func TestAdjacencyMatrix(t *testing.T) {
	m := graphtest.NewModel(FacetIP)
	m.Add(IPNode(ipA), IPNode(ipB), Counters{Bytes: 100})
	m.Add(IPNode(ipB), IPNode(ipA), Counters{Bytes: 40})
	a := m.Graph().AdjacencyMatrix(Bytes)
	if a.N != 2 {
		t.Fatalf("N = %d", a.N)
	}
	// Order is sorted: ipA < ipB.
	if a.M[0*2+1] != 100 || a.M[1*2+0] != 40 {
		t.Errorf("matrix entries wrong: %v", a.M)
	}
	s := a.Symmetrized()
	if s[0*2+1] != 70 || s[1*2+0] != 70 {
		t.Errorf("symmetrized = %v, want 70 off-diagonal", s)
	}
}

func TestDiff(t *testing.T) {
	old := graphtest.NewModel(FacetIP)
	old.Add(IPNode(ipA), IPNode(ipB), Counters{Bytes: 100})
	old.Add(IPNode(ipA), IPNode(ipC), Counters{Bytes: 50})
	cur := graphtest.NewModel(FacetIP)
	cur.Add(IPNode(ipA), IPNode(ipB), Counters{Bytes: 150}) // changed
	cur.Add(IPNode(ipA), IPNode(ipX), Counters{Bytes: 30})  // new pair + node

	d := Diff(old.Graph(), cur.Graph())
	if len(d.AddedNodes) != 1 || d.AddedNodes[0] != IPNode(ipX) {
		t.Errorf("AddedNodes = %v", d.AddedNodes)
	}
	if len(d.RemovedNodes) != 1 || d.RemovedNodes[0] != IPNode(ipC) {
		t.Errorf("RemovedNodes = %v", d.RemovedNodes)
	}
	if len(d.AddedPairs) != 1 || len(d.RemovedPairs) != 1 {
		t.Errorf("pairs: +%d -%d, want +1 -1", len(d.AddedPairs), len(d.RemovedPairs))
	}
	// L1 = |150-100| + 30 (added) + 50 (removed) = 130 over oldTotal 150.
	want := 130.0 / 150.0
	if diff := d.ByteChange - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ByteChange = %v, want %v", d.ByteChange, want)
	}
}

func TestDiffIdentical(t *testing.T) {
	m := graphtest.NewModel(FacetIP)
	m.Add(IPNode(ipA), IPNode(ipB), Counters{Bytes: 100})
	g := m.Graph()
	d := Diff(g, g)
	if d.ByteChange != 0 || len(d.AddedPairs)+len(d.RemovedPairs) != 0 {
		t.Errorf("Diff(g,g) = %+v, want empty", d)
	}
}

func TestStats(t *testing.T) {
	m := graphtest.NewModel(FacetIP)
	m.Add(IPNode(ipA), IPNode(ipB), Counters{Bytes: 10, Packets: 1, Conns: 1})
	m.Add(IPNode(ipA), IPNode(ipC), Counters{Bytes: 20, Packets: 2, Conns: 1})
	s := m.Graph().ComputeStats()
	if s.Nodes != 3 || s.Edges != 2 || s.MaxDeg != 2 || s.Bytes != 30 {
		t.Errorf("Stats = %+v", s)
	}
	wantDensity := 2.0 / 3.0
	if s.Density < wantDensity-1e-9 || s.Density > wantDensity+1e-9 {
		t.Errorf("Density = %v, want %v", s.Density, wantDensity)
	}
}

func TestDOTDeterministic(t *testing.T) {
	m := graphtest.NewModel(FacetIP)
	m.Add(IPNode(ipA), IPNode(ipB), Counters{Bytes: 10})
	m.Add(IPNode(ipC), IPNode(ipA), Counters{Bytes: 5})
	g := m.Graph()
	d1 := g.DOT(Bytes, map[Node]int{IPNode(ipA): 0, IPNode(ipB): 1, IPNode(ipC): 1})
	d2 := g.DOT(Bytes, map[Node]int{IPNode(ipA): 0, IPNode(ipB): 1, IPNode(ipC): 1})
	if d1 != d2 {
		t.Error("DOT output not deterministic")
	}
	if len(d1) == 0 || d1[:5] != "graph" {
		t.Errorf("DOT output malformed: %q", d1[:20])
	}
}

func TestBuilderLateRecordFoldedIn(t *testing.T) {
	b := NewBuilder(BuilderOptions{})
	rec := flowlog.Record{
		Time: t0.Add(time.Minute), LocalIP: ipA, LocalPort: 1, RemoteIP: ipB, RemotePort: 2,
		PacketsSent: 1, BytesSent: 100,
	}
	b.AddValid(&rec)
	late := rec
	late.Time = t0 // older than current interval
	late.LocalPort = 3
	b.AddValid(&late)
	g := b.Finish()
	if got := graphtest.Of(g).PairCounters(IPNode(ipA), IPNode(ipB)); got.Bytes != 200 {
		t.Errorf("late record dropped: bytes = %d, want 200", got.Bytes)
	}
}
