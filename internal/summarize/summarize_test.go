package summarize

import (
	"math"
	"net/netip"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

func node(i int) graph.Node {
	return graph.IPNode(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}))
}

// skewedGraph: one hub carries almost all traffic to many spokes.
func skewedGraph(spokes int) *graph.Graph {
	m := graphtest.NewModel(graph.FacetIP)
	hub := node(1)
	for i := 0; i < spokes; i++ {
		m.Add(node(100+i), hub, graph.Counters{Bytes: 10, Packets: 1, Conns: 1})
	}
	m.Add(hub, node(2), graph.Counters{Bytes: 1_000_000, Packets: 700, Conns: 3})
	return m.Graph()
}

func TestCCDFShape(t *testing.T) {
	g := skewedGraph(100)
	pts := CCDF(g, graph.Bytes)
	if len(pts) != g.NumNodes() {
		t.Fatalf("points = %d, want %d", len(pts), g.NumNodes())
	}
	// Monotone: CCDF non-increasing, fraction increasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].CCDF > pts[i-1].CCDF+1e-12 {
			t.Fatal("CCDF not non-increasing")
		}
		if pts[i].Fraction <= pts[i-1].Fraction {
			t.Fatal("fractions not increasing")
		}
	}
	if last := pts[len(pts)-1]; last.CCDF > 1e-12 || last.Fraction != 1 {
		t.Errorf("curve should end at (1, 0): %+v", last)
	}
	// Skew: a tiny node fraction carries 90% of bytes.
	if f := FractionForShare(pts, 0.9); f > 0.05 {
		t.Errorf("top %.2f%% of nodes needed for 90%% of bytes, want few", 100*f)
	}
}

func TestCCDFEmpty(t *testing.T) {
	if pts := CCDF(graph.New(graph.FacetIP), graph.Bytes); pts != nil {
		t.Errorf("empty graph CCDF = %v", pts)
	}
}

// TestCCDFZeroTraffic pins the zero-total case: nodes that exchanged no
// bytes (connection-only edges) used to divide by zero and print a "NaN%"
// headline; the curve is flat at 0 instead.
func TestCCDFZeroTraffic(t *testing.T) {
	m := graphtest.NewModel(graph.FacetIP)
	m.Add(node(1), node(2), graph.Counters{Conns: 1})
	m.Add(node(2), node(3), graph.Counters{Conns: 2})
	g := m.Graph()
	pts := CCDF(g, graph.Bytes)
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for i, p := range pts {
		if p.CCDF != 0 || p.Fraction != float64(i+1)/3 {
			t.Fatalf("point %d = %+v, want a flat curve at CCDF 0", i, p)
		}
	}
	if h := Summarize(g).Headline; strings.Contains(h, "NaN") {
		t.Fatalf("headline %q", h)
	}
}

func TestHubsDetection(t *testing.T) {
	g := skewedGraph(50)
	hubs := Hubs(g, 0.5)
	if len(hubs) != 1 {
		t.Fatalf("hubs = %+v, want exactly the hub", hubs)
	}
	if hubs[0].Node != node(1) {
		t.Errorf("wrong hub: %v", hubs[0].Node)
	}
	if hubs[0].Degree != 51 {
		t.Errorf("hub degree = %d, want 51", hubs[0].Degree)
	}
	if hubs[0].ByteShare < 0.99 {
		t.Errorf("hub byte share = %v", hubs[0].ByteShare)
	}
}

func TestHubsTinyGraph(t *testing.T) {
	m := graphtest.NewModel(graph.FacetIP)
	m.Add(node(1), node(2), graph.Counters{Bytes: 1})
	g := m.Graph()
	if hubs := Hubs(g, 0.5); hubs != nil {
		t.Errorf("2-node graph should have no hubs: %+v", hubs)
	}
}

func TestChattyCliques(t *testing.T) {
	m := graphtest.NewModel(graph.FacetIP)
	// A 5-clique exchanging heavy traffic.
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			m.Add(node(i+1), node(j+1), graph.Counters{Bytes: 100_000, Packets: 70, Conns: 5})
		}
	}
	// Background noise.
	for i := 0; i < 30; i++ {
		m.Add(node(200+i), node(300+i), graph.Counters{Bytes: 50, Packets: 1, Conns: 1})
	}
	g := m.Graph()
	cliques := ChattyCliques(g, 3, 0.5, 0.01)
	if len(cliques) != 1 {
		t.Fatalf("cliques = %d, want 1", len(cliques))
	}
	c := cliques[0]
	if len(c.Members) != 5 {
		t.Errorf("clique members = %v, want the 5-clique", c.Members)
	}
	if c.Density != 1 {
		t.Errorf("clique density = %v, want 1", c.Density)
	}
	if c.ByteShare < 0.99 {
		t.Errorf("byte share = %v", c.ByteShare)
	}
}

func TestChattyCliquesEmptyAndSparse(t *testing.T) {
	if c := ChattyCliques(graph.New(graph.FacetIP), 3, 0.5, 0.01); c != nil {
		t.Errorf("empty graph cliques = %v", c)
	}
	// A pure star is not a clique: spokes don't interconnect.
	g := skewedGraph(20)
	for _, c := range ChattyCliques(g, 3, 0.8, 0.01) {
		if len(c.Members) > 2 {
			t.Errorf("star graph produced clique %v", c.Members)
		}
	}
}

func TestSummarizeHeadline(t *testing.T) {
	s := Summarize(skewedGraph(100))
	if s.Headline == "" || s.Stats.Nodes != 102 {
		t.Errorf("summary = %+v", s.Stats)
	}
	if len(s.Hubs) != 1 {
		t.Errorf("summary hubs = %d", len(s.Hubs))
	}
}

func TestScoreWindowsFlagsSpike(t *testing.T) {
	mk := func(extra uint64) *graph.Graph {
		m := graphtest.NewModel(graph.FacetIP)
		m.Add(node(1), node(2), graph.Counters{Bytes: 1000})
		m.Add(node(1), node(3), graph.Counters{Bytes: 1000})
		if extra > 0 {
			m.Add(node(1), node(99), graph.Counters{Bytes: extra})
		}
		return m.Graph()
	}
	windows := []*graph.Graph{mk(0), mk(0), mk(0), mk(0), mk(0), mk(50_000)}
	scores := ScoreWindows(windows, AnomalyOptions{})
	for i := 0; i < 5; i++ {
		if scores[i].Anomalous {
			t.Errorf("steady window %d flagged", i)
		}
	}
	last := scores[5]
	if !last.Anomalous {
		t.Errorf("spike window not flagged: %+v", last)
	}
	if last.NewPairs != 1 {
		t.Errorf("NewPairs = %d, want 1", last.NewPairs)
	}
}

func TestScoreWindowsNoHistoryNoFlag(t *testing.T) {
	m1 := graphtest.NewModel(graph.FacetIP)
	m1.Add(node(1), node(2), graph.Counters{Bytes: 10})
	m2 := graphtest.NewModel(graph.FacetIP)
	m2.Add(node(1), node(9), graph.Counters{Bytes: 99999})
	g1, g2 := m1.Graph(), m2.Graph()
	scores := ScoreWindows([]*graph.Graph{g1, g2}, AnomalyOptions{})
	if scores[1].Anomalous {
		t.Error("flagged without enough history")
	}
	if scores[1].Drift == 0 {
		t.Error("drift should be nonzero")
	}
}

func TestMeanStdFloor(t *testing.T) {
	mean, sd := meanStd([]float64{0.5, 0.5, 0.5})
	if mean != 0.5 {
		t.Errorf("mean = %v", mean)
	}
	if sd != 1e-3 {
		t.Errorf("sd floor = %v, want 1e-3", sd)
	}
	_, sd2 := meanStd([]float64{0, 10})
	if math.Abs(sd2-5) > 1e-9 {
		t.Errorf("sd = %v, want 5", sd2)
	}
}

func TestFractionForShareDegenerate(t *testing.T) {
	if f := FractionForShare(nil, 0.5); f != 1 {
		t.Errorf("empty curve: %v", f)
	}
}

func scanRecs(src netip.Addr, ports int, base uint16) []flowlog.Record {
	t0 := time.Unix(1700000000, 0).UTC()
	recs := make([]flowlog.Record, 0, ports)
	dst := netip.MustParseAddr("10.0.0.99")
	for i := 0; i < ports; i++ {
		recs = append(recs, flowlog.Record{
			Time: t0, LocalIP: src, LocalPort: uint16(40000 + i),
			RemoteIP: dst, RemotePort: base + uint16(i),
			PacketsSent: 2, BytesSent: 120,
		})
	}
	return recs
}

func TestPortFanouts(t *testing.T) {
	src := netip.MustParseAddr("10.0.0.1")
	recs := scanRecs(src, 50, 100)
	// Duplicate ports must not double count.
	recs = append(recs, recs[0])
	fans := PortFanouts(recs)
	if len(fans) != 1 || fans[0].DistinctPorts != 50 || fans[0].LowPorts != 50 {
		t.Fatalf("fanouts = %+v", fans)
	}
}

func TestDetectScansFlagsScanner(t *testing.T) {
	src := netip.MustParseAddr("10.0.0.1")
	quiet := netip.MustParseAddr("10.0.0.2")
	baseline := append(scanRecs(src, 3, 100), scanRecs(quiet, 3, 100)...)
	window := append(scanRecs(src, 80, 100), scanRecs(quiet, 3, 100)...)
	suspects := DetectScans(baseline, window, 20)
	if len(suspects) != 1 {
		t.Fatalf("suspects = %+v", suspects)
	}
	if suspects[0].Source != graph.IPNode(src) || suspects[0].WindowPorts != 80 {
		t.Errorf("suspect = %+v", suspects[0])
	}
}

func TestDetectScansIgnoresHighPorts(t *testing.T) {
	src := netip.MustParseAddr("10.0.0.3")
	// Many distinct *ephemeral* remote ports (e.g. a server's replies)
	// are not a scan signature.
	window := scanRecs(src, 80, 40000)
	if got := DetectScans(nil, window, 20); len(got) != 0 {
		t.Errorf("high-port fanout flagged: %+v", got)
	}
}
