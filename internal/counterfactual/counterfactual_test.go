package counterfactual

import (
	"math"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

var (
	a  = netip.MustParseAddr("10.0.0.1")
	b  = netip.MustParseAddr("10.0.0.2")
	t0 = time.Unix(1700000000, 0).UTC().Truncate(time.Minute)
)

func TestDistQuantiles(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if d.N() != 100 || d.Mean() != 50.5 {
		t.Errorf("N=%d mean=%v", d.N(), d.Mean())
	}
	if q := d.Quantile(0.5); q != 50 {
		t.Errorf("p50 = %v", q)
	}
	if q := d.Quantile(0.99); q != 99 {
		t.Errorf("p99 = %v", q)
	}
	if q := d.Quantile(0); q != 1 {
		t.Errorf("p0 = %v", q)
	}
	if q := d.Quantile(1); q != 100 {
		t.Errorf("p100 = %v", q)
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Quantile(0.5) != 0 || d.N() != 0 {
		t.Error("empty dist should be zeros")
	}
}

func TestFlowSizesAggregatesByKey(t *testing.T) {
	r1 := flowlog.Record{Time: t0, LocalIP: a, LocalPort: 1, RemoteIP: b, RemotePort: 2, BytesSent: 100, BytesRcvd: 50}
	r2 := r1
	r2.Time = t0.Add(time.Minute) // same flow, next interval
	r3 := flowlog.Record{Time: t0, LocalIP: a, LocalPort: 9, RemoteIP: b, RemotePort: 2, BytesSent: 1000}
	d := FlowSizes([]flowlog.Record{r1, r2, r3})
	if d.N() != 2 {
		t.Fatalf("flows = %d, want 2", d.N())
	}
	if d.Quantile(1) != 1000 || d.Quantile(0) != 300 {
		t.Errorf("sizes = [%v, %v]", d.Quantile(0), d.Quantile(1))
	}
}

func TestInterArrivalsQuantized(t *testing.T) {
	mk := func(port uint16, at time.Time) flowlog.Record {
		return flowlog.Record{Time: at, LocalIP: a, LocalPort: port, RemoteIP: b, RemotePort: 2, BytesSent: 1}
	}
	recs := []flowlog.Record{
		mk(1, t0),
		mk(2, t0.Add(time.Minute)),
		mk(3, t0.Add(3*time.Minute)),
		mk(1, t0.Add(5*time.Minute)), // not a new arrival
	}
	d := InterArrivals(recs, time.Minute)
	if d.N() != 2 {
		t.Fatalf("gaps = %d, want 2", d.N())
	}
	if d.Quantile(0) != 60 || d.Quantile(1) != 120 {
		t.Errorf("gaps = [%v, %v]", d.Quantile(0), d.Quantile(1))
	}
}

func TestFCTModel(t *testing.T) {
	m := FCTModel{CapacityBps: 1000, Rho: 0}
	if got := m.FCT(2000); got != 2*time.Second {
		t.Errorf("idle FCT = %v, want 2s", got)
	}
	loaded := FCTModel{CapacityBps: 1000, Rho: 0.5}
	if got := loaded.FCT(2000); got != 4*time.Second {
		t.Errorf("loaded FCT = %v, want 4s (2x slowdown)", got)
	}
	if s := loaded.Slowdown(); s != 2 {
		t.Errorf("slowdown = %v", s)
	}
	if s := (FCTModel{Rho: 1}).Slowdown(); !math.IsInf(s, 1) {
		t.Errorf("saturated slowdown = %v", s)
	}
	if d := (FCTModel{}).FCT(10); d != time.Duration(math.MaxInt64) {
		t.Errorf("zero capacity FCT = %v", d)
	}
}

func TestFCTQuantiles(t *testing.T) {
	var sizes Dist
	sizes.Add(1000)
	sizes.Add(2000)
	sizes.Add(4000)
	m := FCTModel{CapacityBps: 1000}
	fcts := m.FCTQuantiles(&sizes, []float64{0, 1})
	if fcts[0] != time.Second || fcts[1] != 4*time.Second {
		t.Errorf("FCT quantiles = %v", fcts)
	}
}

func loadedGraph() *graph.Graph {
	m := graphtest.NewModel(graph.FacetIP)
	m.Start = t0
	m.End = t0.Add(time.Hour)
	hot := graph.IPNode(a)
	m.Add(hot, graph.IPNode(b), graph.Counters{Bytes: 60_000_000}) // 1MB/min
	m.Add(hot, graph.IPNode(netip.MustParseAddr("10.0.0.3")), graph.Counters{Bytes: 6_000_000})
	m.Add(graph.IPNode(netip.MustParseAddr("10.0.0.4")), graph.IPNode(netip.MustParseAddr("10.0.0.5")), graph.Counters{Bytes: 600_000})
	return m.Graph()
}

func TestBottlenecksRanking(t *testing.T) {
	g := loadedGraph()
	loads := Bottlenecks(g, 2_000_000) // 2MB/min capacity
	if loads[0].Node != graph.IPNode(a) {
		t.Fatalf("hottest node = %v, want %v", loads[0].Node, a)
	}
	// a: 66MB over 60 min = 1.1MB/min, util 0.55.
	if math.Abs(loads[0].BytesPerMin-1_100_000) > 1 {
		t.Errorf("BytesPerMin = %v", loads[0].BytesPerMin)
	}
	if math.Abs(loads[0].Utilization-0.55) > 1e-9 {
		t.Errorf("Utilization = %v", loads[0].Utilization)
	}
	for i := 1; i < len(loads); i++ {
		if loads[i].BytesPerMin > loads[i-1].BytesPerMin {
			t.Fatal("loads not sorted")
		}
	}
}

func TestPlanCapacity(t *testing.T) {
	g := loadedGraph()
	plan := PlanCapacity(g, 2_000_000, 0.52, 2)
	if len(plan.Upgrades) != 1 || plan.Upgrades[0].Node != graph.IPNode(a) {
		t.Errorf("upgrades = %+v, want just the hot node", plan.Upgrades)
	}
	if len(plan.Proximity) != 2 {
		t.Fatalf("proximity = %d pairs", len(plan.Proximity))
	}
	if plan.Proximity[0].Bytes != 60_000_000 {
		t.Errorf("heaviest pair bytes = %d", plan.Proximity[0].Bytes)
	}
}

// naivePlanCapacity is PlanCapacity as it was before bounded selection:
// every node load ranked, every pair sorted. Kept as the reference the
// planner is tested against.
func naivePlanCapacity(g *graph.Graph, capacityPerMin float64, utilThreshold float64, topPairs int) Plan {
	var plan Plan
	for _, nl := range Bottlenecks(g, capacityPerMin) {
		if nl.Utilization >= utilThreshold && utilThreshold > 0 {
			plan.Upgrades = append(plan.Upgrades, nl)
		}
	}
	edges := g.UndirectedEdges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Bytes != edges[j].Bytes {
			return edges[i].Bytes > edges[j].Bytes
		}
		if edges[i].A != edges[j].A {
			return edges[i].A.Less(edges[j].A)
		}
		return edges[i].B.Less(edges[j].B)
	})
	if topPairs > len(edges) {
		topPairs = len(edges)
	}
	plan.Proximity = edges[:topPairs]
	return plan
}

// TestPlanCapacityMatchesNaive drives the planner and the full-sort
// reference over every generated shape (byte ties are common there,
// self-loops and zero-byte pairs present): the same
// proximity list for topPairs from 0 to past the pair count, and the same
// upgrades over a capacity × threshold grid that includes zero and
// negative values.
func TestPlanCapacityMatchesNaive(t *testing.T) {
	upgrades := 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, c := range graphtest.Cases(seed) {
			pairs := len(c.G.UndirectedEdges())
			for _, top := range []int{0, 1, 10, pairs, pairs + 7} {
				got, want := PlanCapacity(c.G, 0, 0.8, top), naivePlanCapacity(c.G, 0, 0.8, top)
				if !slices.Equal(got.Proximity, want.Proximity) {
					t.Fatalf("seed %d %s topPairs %d: proximity\n got: %v\nwant: %v", seed, c.Name, top, got.Proximity, want.Proximity)
				}
			}
			for _, capacity := range []float64{-1000, 0, 100, 5000, 1e9} {
				for _, threshold := range []float64{-1, 0, 0.5, 1, 3} {
					got, want := PlanCapacity(c.G, capacity, threshold, 3), naivePlanCapacity(c.G, capacity, threshold, 3)
					if !slices.Equal(got.Upgrades, want.Upgrades) {
						t.Fatalf("seed %d %s capacity %g threshold %g: upgrades\n got: %v\nwant: %v", seed, c.Name, capacity, threshold, got.Upgrades, want.Upgrades)
					}
					upgrades += len(want.Upgrades)
				}
			}
		}
	}
	if upgrades == 0 {
		t.Fatal("no case recommended any upgrade; the grid tests nothing")
	}
}

// TestPlanCapacityNonPositivePairs pins that a zero or negative proximity
// bound asks for no list: a negative one used to slice out of range and
// panic (graphctl plan -pairs -1, or a counterfactual runner's bus
// consumer).
func TestPlanCapacityNonPositivePairs(t *testing.T) {
	for _, top := range []int{0, -1, -100} {
		if plan := PlanCapacity(loadedGraph(), 2_000_000, 0.52, top); len(plan.Proximity) != 0 || len(plan.Upgrades) != 1 {
			t.Errorf("topPairs %d: plan = %+v, want one upgrade and no proximity list", top, plan)
		}
	}
}

func TestBottlenecksDefaultWindow(t *testing.T) {
	m := graphtest.NewModel(graph.FacetIP) // zero Start/End: assumes an hour
	m.Add(graph.IPNode(a), graph.IPNode(b), graph.Counters{Bytes: 60})
	g := m.Graph()
	loads := Bottlenecks(g, 0)
	if loads[0].BytesPerMin != 1 {
		t.Errorf("BytesPerMin = %v, want 1 (60 bytes / 60 min)", loads[0].BytesPerMin)
	}
	if loads[0].Utilization != 0 {
		t.Errorf("utilization without capacity = %v, want 0", loads[0].Utilization)
	}
}
