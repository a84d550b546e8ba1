package cloudgraph

import (
	"testing"
	"time"
)

var t0 = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)

// tinyPreset returns a down-scaled µserviceBench for fast facade tests.
func tinyPreset(t *testing.T) *Cluster {
	t.Helper()
	if _, err := NewCluster(ClusterSpec{Name: "empty"}); err == nil {
		t.Fatal("empty spec should fail")
	}
	spec, err := Preset("microservicebench", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestPublicAPIEndToEnd(t *testing.T) {
	cl := tinyPreset(t)
	recs, err := cl.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no telemetry")
	}

	g := BuildGraph(recs, GraphOptions{})
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatalf("graph = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}

	assign, err := Segment(g, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := ScoreSegmentation(assign, cl.GroundTruth())
	if q.Nodes == 0 {
		t.Error("segmentation scored no nodes")
	}

	pol := LearnPolicy(g, assign)
	if len(pol.AllowedPairs()) == 0 {
		t.Error("no allowed pairs learned")
	}
	if pol.MeanBlastRadius() <= 0 {
		t.Error("blast radius should be positive")
	}

	sum := Summarize(g)
	if sum.Headline == "" {
		t.Error("no headline")
	}
	if pts := CCDF(g, Bytes); len(pts) != g.NumNodes() {
		t.Error("CCDF size mismatch")
	}

	p, err := NewPCA(g, Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if e := p.ReconErr(p.N); e > 1e-6 {
		t.Errorf("full-rank PCA error = %v", e)
	}

	sizes := FlowSizes(recs)
	if sizes.N() == 0 || sizes.Mean() <= 0 {
		t.Error("flow sizes empty")
	}
	gaps := InterArrivals(recs, time.Minute)
	if gaps.N() == 0 {
		t.Error("inter-arrivals empty")
	}

	plan := PlanCapacity(g, 1e6, 0.01, 3)
	if len(plan.Proximity) != 3 {
		t.Errorf("proximity pairs = %d", len(plan.Proximity))
	}
}

func TestPublicEngineFlow(t *testing.T) {
	cl := tinyPreset(t)
	var windows []*Graph
	e := NewEngine(EngineConfig{Window: time.Hour, Consumers: []ConsumerSpec{{
		Name: "windows",
		Fn:   func(_ uint64, g *Graph) { windows = append(windows, g) },
	}}})
	defer e.Close()
	if _, err := cl.Run(t0, 60, e); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if len(windows) != 1 {
		t.Fatalf("windows = %d", len(windows))
	}
	base, err := LearnBaseline(windows[0], SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := base.Monitor(windows[0])
	if rep == nil || len(rep.Violations) != 0 {
		t.Errorf("self-check should be clean: %+v", rep)
	}
	if e.Cost().Records == 0 {
		t.Error("cost meter empty")
	}
}

func TestProvidersExposed(t *testing.T) {
	ps := Providers()
	if len(ps) != 3 || ps[0].Name != "Azure" {
		t.Errorf("providers = %+v", ps)
	}
	if len(PresetNames()) != 4 {
		t.Error("want 4 presets")
	}
}

func TestSegmentWithStrategies(t *testing.T) {
	cl := tinyPreset(t)
	recs, err := cl.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildGraph(recs, GraphOptions{})
	for _, s := range []Strategy{JaccardLouvain, MinHashLouvain, ModularityConn, ModularityBytes} {
		a, err := SegmentWith(s, g, SegmentOptions{})
		if err != nil || len(a) == 0 {
			t.Errorf("%s: %v", s, err)
		}
	}
}

func TestBuildGraphCollapse(t *testing.T) {
	cl := tinyPreset(t)
	recs, err := cl.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	full := BuildGraph(recs, GraphOptions{})
	collapsed := BuildGraph(recs, GraphOptions{
		CollapseThreshold: 0.05,
		Keep:              func(n Node) bool { return cl.Monitored(n.Addr) },
	})
	if collapsed.NumNodes() > full.NumNodes() {
		t.Error("collapse increased node count")
	}
}

func TestEndpointFacetSeparatesColocatedServices(t *testing.T) {
	// §2.1 concern (2): "Resources may have multiple roles, for e.g., a VM
	// may run multiple services. Thus, segmenting IP-port graphs may be
	// more useful." Build VMs hosting two services with different peer
	// structures: the IP facet cannot tell them apart by construction; the
	// endpoint facet separates them.
	spec := ClusterSpec{
		Name: "colo-facet", Seed: 21,
		Roles: []RoleSpec{
			{Name: "web", Count: 6, Port: 443},
			{Name: "metrics", ColocateWith: "web", Port: 9100},
			{Name: "scraper", Count: 2, Port: 9999},
			{Name: "client", Count: 12, External: true},
		},
		Links: []LinkSpec{
			{Src: "client", Dst: "web", FlowsPerMin: 20, Fanout: 3, FwdBytes: 600, RevBytes: 9000},
			{Src: "scraper", Dst: "metrics", FlowsPerMin: 30, Fanout: -1, FwdBytes: 200, RevBytes: 20000},
		},
	}
	cl, err := NewCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := cl.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}

	// Endpoint facet: web:443 and web:9100 endpoints exist as distinct
	// nodes with distinct neighborhoods.
	ge := BuildGraph(recs, GraphOptions{Facet: FacetEndpoint})
	web := cl.Addresses("web")[0]
	n443 := Node{Addr: web, Port: 443}
	n9100 := Node{Addr: web, Port: 9100}
	if !ge.HasNode(n443) || !ge.HasNode(n9100) {
		t.Fatalf("endpoint facet missing service nodes (have %d nodes)", ge.NumNodes())
	}
	assign, err := Segment(ge, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if assign[n443] == assign[n9100] {
		t.Errorf("endpoint facet should separate co-located services into different segments")
	}
	q := ScoreSegmentation(assign, cl.GroundTruthEndpoints())
	if q.Purity < 0.8 {
		t.Errorf("endpoint segmentation purity = %v", q.Purity)
	}

	// IP facet: the two services are one node — inseparable by definition.
	gi := BuildGraph(recs, GraphOptions{Facet: FacetIP})
	if gi.HasNode(n443) {
		t.Error("IP facet should not key by port")
	}
}
