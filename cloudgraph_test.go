package cloudgraph

import (
	"math"
	"strings"
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
	for _, s := range []Strategy{JaccardLouvain, ModularityConn, ModularityBytes} {
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

// nsgExport is a minimal version-2 Azure NSG flow log: one outbound flow's
// continuation tuple and an inbound begin tuple, which carries no counters
// and so yields no record.
const nsgExport = `{"records": [{"time": "2018-11-13T12:00:35Z", "properties": {"Version": 2,
  "flows": [{"rule": "DefaultRule_AllowInternetOutBound", "flows": [{"mac": "000D3AF87856",
    "flowTuples": ["1542110437,10.0.0.4,13.67.143.118,44931,443,T,O,A,C,25,4096,12,2500",
                   "1542110402,10.0.0.5,10.0.0.4,51831,8080,T,I,A,B,,,,"]}]}]}}]}`

// TestFacadeWrappers drives, once each on a small input, the facade
// wrappers that no other test, example or experiment exercises.
func TestFacadeWrappers(t *testing.T) {
	recs, err := tinyPreset(t).CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildGraph(recs, GraphOptions{})
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"Fingerprint", func(t *testing.T) {
			fp := Fingerprint(g)
			if len(fp) == 0 {
				t.Fatal("empty fingerprint")
			}
			for i, v := range fp {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("feature %d = %v", i, v)
				}
			}
		}},
		{"TrainClassifier", func(t *testing.T) {
			if _, err := TrainClassifier(nil); err == nil {
				t.Error("training on no samples should fail")
			}
			empty := Fingerprint(BuildGraph(nil, GraphOptions{}))
			clf, err := TrainClassifier([]ModelSample{{Label: "usvc", FP: Fingerprint(g)}, {Label: "empty", FP: empty}})
			if err != nil {
				t.Fatal(err)
			}
			if label, _ := clf.Classify(Fingerprint(g)); label != "usvc" {
				t.Errorf("a training graph classifies as %q, want usvc", label)
			}
		}},
		{"Attribute", func(t *testing.T) {
			a := Attribute(g)
			if sum := a.CliqueShare + a.HubShare + a.CollapsedShare + a.ScatterShare; math.Abs(sum-1) > 1e-9 || a.Headline == "" {
				t.Errorf("shares sum to %v, headline %q: %+v", sum, a.Headline, a)
			}
		}},
		{"NewPCA", func(t *testing.T) {
			p, err := NewPCA(g, Bytes)
			if err != nil {
				t.Fatal(err)
			}
			if p.N != g.NumNodes() || p.ReconErr(p.N) > 1e-6 || p.ReconErr(0) < p.ReconErr(p.N) {
				t.Errorf("N = %d (graph %d nodes), error at rank 0 %v, at full rank %v",
					p.N, g.NumNodes(), p.ReconErr(0), p.ReconErr(p.N))
			}
		}},
		{"ParseAzureNSG", func(t *testing.T) {
			got, err := ParseAzureNSG(strings.NewReader(nsgExport))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0].LocalIP.String() != "10.0.0.4" || got[0].RemotePort != 443 ||
				got[0].BytesSent != 4096 || got[0].BytesRcvd != 2500 || got[0].Time.Unix() != 1542110437 {
				t.Errorf("parsed %+v, want the one outbound flow", got)
			}
		}},
		{"OpenHistory", func(t *testing.T) {
			dir := t.TempDir()
			h, err := OpenHistory(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Append(1, g); err != nil {
				t.Fatal(err)
			}
			check := func(h *History, when string) {
				got, err := h.Get(1)
				if err != nil {
					t.Fatalf("%s: Get(1): %v", when, err)
				}
				if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() || got.TotalTraffic() != g.TotalTraffic() {
					t.Errorf("%s: history returned %d nodes, %d edges, want %d, %d",
						when, got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
				}
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
			}
			check(h, "after append")
			if h, err = OpenHistory(dir); err != nil {
				t.Fatal(err)
			}
			check(h, "after reopen")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}
