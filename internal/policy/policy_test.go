package policy

import (
	"net/netip"
	"testing"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
	"cloudgraph/internal/segment"
)

// fixture: two frontends (seg 0), two backends (seg 1), one db (seg 2).
// Baseline traffic: fe<->be, be<->db.
func fixture() (*graph.Graph, segment.Assignment, map[string]graph.Node) {
	nodes := map[string]graph.Node{
		"fe1": graph.IPNode(netip.MustParseAddr("10.0.0.1")),
		"fe2": graph.IPNode(netip.MustParseAddr("10.0.0.2")),
		"be1": graph.IPNode(netip.MustParseAddr("10.0.0.3")),
		"be2": graph.IPNode(netip.MustParseAddr("10.0.0.4")),
		"db1": graph.IPNode(netip.MustParseAddr("10.0.0.5")),
	}
	assign := segment.Assignment{
		nodes["fe1"]: 0, nodes["fe2"]: 0,
		nodes["be1"]: 1, nodes["be2"]: 1,
		nodes["db1"]: 2,
	}
	m := graphtest.NewModel(graph.FacetIP)
	c := graph.Counters{Bytes: 10_000, Packets: 10, Conns: 2}
	m.Add(nodes["fe1"], nodes["be1"], c)
	m.Add(nodes["fe1"], nodes["be2"], c)
	m.Add(nodes["fe2"], nodes["be1"], c)
	m.Add(nodes["fe2"], nodes["be2"], c)
	m.Add(nodes["be1"], nodes["db1"], c)
	m.Add(nodes["be2"], nodes["db1"], c)
	g := m.Graph()
	return g, assign, nodes
}

func TestLearnAndAllows(t *testing.T) {
	g, assign, nodes := fixture()
	r := Learn(g, assign)
	if !r.Allows(nodes["fe1"], nodes["be2"]) {
		t.Error("fe-be should be allowed")
	}
	if !r.Allows(nodes["db1"], nodes["be1"]) {
		t.Error("be-db should be allowed (symmetric)")
	}
	if r.Allows(nodes["fe1"], nodes["db1"]) {
		t.Error("fe-db was never observed: default deny")
	}
	if r.Allows(nodes["fe1"], nodes["fe2"]) {
		t.Error("fe-fe was never observed: default deny")
	}
	stranger := graph.IPNode(netip.MustParseAddr("203.0.113.1"))
	if r.Allows(nodes["fe1"], stranger) {
		t.Error("unassigned node must be denied")
	}
	if got := len(r.AllowedPairs()); got != 2 {
		t.Errorf("AllowedPairs = %d, want 2", got)
	}
}

func TestCheckGraphFindsViolations(t *testing.T) {
	g, assign, nodes := fixture()
	r := Learn(g, assign)
	nextM := graphtest.NewModel(graph.FacetIP)
	nextM.Add(nodes["fe1"], nodes["be1"], graph.Counters{Bytes: 1}) // allowed
	nextM.Add(nodes["fe1"], nodes["db1"], graph.Counters{Bytes: 9}) // violation
	next := nextM.Graph()
	vs := r.CheckGraph(next)
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1", len(vs))
	}
	if vs[0].Bytes != 9 {
		t.Errorf("violation carries wrong counters: %+v", vs[0])
	}
}

func TestBlastRadius(t *testing.T) {
	g, assign, nodes := fixture()
	r := Learn(g, assign)
	// fe1 can reach segment 1 (2 backends) only: fe-fe not allowed.
	if got := r.BlastRadius(nodes["fe1"]); got != 2 {
		t.Errorf("BlastRadius(fe1) = %d, want 2", got)
	}
	// be1 reaches segment 0 (2) and segment 2 (1): 3. be-be not allowed.
	if got := r.BlastRadius(nodes["be1"]); got != 3 {
		t.Errorf("BlastRadius(be1) = %d, want 3", got)
	}
	// Unsegmented baseline would be 4 for every node.
	mean := r.MeanBlastRadius()
	want := (2.0 + 2 + 3 + 3 + 2) / 5
	if mean != want {
		t.Errorf("MeanBlastRadius = %v, want %v", mean, want)
	}
	if r.BlastRadius(graph.ServiceNode("unknown")) != 0 {
		t.Error("unknown node should have zero radius")
	}
}

func TestBlastRadiusSelfSegment(t *testing.T) {
	// If a segment talks within itself, members reach each other.
	a := graph.IPNode(netip.MustParseAddr("10.1.0.1"))
	b := graph.IPNode(netip.MustParseAddr("10.1.0.2"))
	m := graphtest.NewModel(graph.FacetIP)
	m.Add(a, b, graph.Counters{Bytes: 1})
	assign := segment.Assignment{a: 0, b: 0}
	g := m.Graph()
	r := Learn(g, assign)
	if got := r.BlastRadius(a); got != 1 {
		t.Errorf("BlastRadius within own segment = %d, want 1", got)
	}
}

func TestCompileIPRulesVsTags(t *testing.T) {
	g, assign, _ := fixture()
	r := Learn(g, assign)
	ip := r.CompileIPRules(DefaultRuleLimit)
	tags := r.CompileTagRules(DefaultRuleLimit)
	// fe VMs: allowed seg 1 => 2 remotes. be VMs: segs 0 and 2 => 3.
	// db VM: seg 1 => 2.
	if ip.Max != 3 || ip.Total != 2*2+2*3+2 {
		t.Errorf("IP rules = %+v", ip)
	}
	// Tags: fe 1 allowed pair, be 2, db 1.
	if tags.Max != 2 || tags.Total != 1+1+2+2+1 {
		t.Errorf("tag rules = %+v", tags)
	}
	if tags.Total >= ip.Total {
		t.Error("tag compilation should need fewer rules")
	}
}

func TestRuleExplosionQuadratic(t *testing.T) {
	// Two segments of n VMs each that talk: IP rules per VM = n, total
	// 2n², while tags stay at 1 rule per VM.
	const n = 60
	m := graphtest.NewModel(graph.FacetIP)
	assign := segment.Assignment{}
	var segA, segB []graph.Node
	for i := 0; i < n; i++ {
		a := graph.IPNode(netip.AddrFrom4([4]byte{10, 2, 0, byte(i + 1)}))
		b := graph.IPNode(netip.AddrFrom4([4]byte{10, 2, 1, byte(i + 1)}))
		assign[a] = 0
		assign[b] = 1
		segA = append(segA, a)
		segB = append(segB, b)
	}
	for _, a := range segA {
		for _, b := range segB {
			m.Add(a, b, graph.Counters{Bytes: 1})
		}
	}
	g := m.Graph()
	r := Learn(g, assign)
	ip := r.CompileIPRules(50) // tight budget
	if ip.Max != n {
		t.Errorf("IP rules per VM = %d, want %d", ip.Max, n)
	}
	if ip.OverLimit != 2*n {
		t.Errorf("OverLimit = %d, want all %d VMs", ip.OverLimit, 2*n)
	}
	tags := r.CompileTagRules(50)
	if tags.Max != 1 || tags.OverLimit != 0 {
		t.Errorf("tags = %+v, want 1 rule per VM", tags)
	}
}

func TestSimilarityPolicySuppressesCohortChange(t *testing.T) {
	g, assign, nodes := fixture()
	r := Learn(g, assign)
	// Code change: BOTH frontends start talking to the db.
	nextM := graphtest.NewModel(graph.FacetIP)
	nextM.Add(nodes["fe1"], nodes["db1"], graph.Counters{Bytes: 5})
	nextM.Add(nodes["fe2"], nodes["db1"], graph.Counters{Bytes: 5})
	next := nextM.Graph()
	changes := SimilarityPolicy{R: r, MinCohortFraction: 0.8}.Evaluate(next)
	if len(changes) != 1 {
		t.Fatalf("changes = %d, want 1", len(changes))
	}
	if !changes[0].Suppressed {
		t.Errorf("uniform cohort change should be suppressed: %+v", changes[0])
	}
	if changes[0].Fraction != 1 {
		t.Errorf("fraction = %v, want 1 (db side fully participating)", changes[0].Fraction)
	}
}

func TestSimilarityPolicyFlagsLoneDeviant(t *testing.T) {
	g, assign, nodes := fixture()
	// Enlarge segment 0 so one deviant is a small fraction.
	m := graphtest.Of(g)
	for i := 10; i < 18; i++ {
		n := graph.IPNode(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}))
		assign[n] = 0
		m.Add(n, nodes["be1"], graph.Counters{Bytes: 1})
	}
	r := Learn(m.Graph(), assign)
	nextM := graphtest.NewModel(graph.FacetIP)
	nextM.Add(nodes["fe1"], nodes["db1"], graph.Counters{Bytes: 500_000})
	next := nextM.Graph()
	changes := SimilarityPolicy{R: r}.Evaluate(next)
	if len(changes) != 1 {
		t.Fatalf("changes = %d, want 1", len(changes))
	}
	if changes[0].Suppressed {
		t.Error("single deviant node must not be suppressed")
	}
	if len(changes[0].Violations) != 1 {
		t.Errorf("violations = %d, want 1", len(changes[0].Violations))
	}
}

func TestProportionalityFlashCrowdNotFlagged(t *testing.T) {
	g, assign, nodes := fixture()
	r := Learn(g, assign)
	// Flash crowd: everything x5.
	nextM := graphtest.NewModel(graph.FacetIP)
	c := graph.Counters{Bytes: 50_000, Packets: 50, Conns: 10}
	nextM.Add(nodes["fe1"], nodes["be1"], c)
	nextM.Add(nodes["fe1"], nodes["be2"], c)
	nextM.Add(nodes["fe2"], nodes["be1"], c)
	nextM.Add(nodes["fe2"], nodes["be2"], c)
	nextM.Add(nodes["be1"], nodes["db1"], c)
	nextM.Add(nodes["be2"], nodes["db1"], c)
	next := nextM.Graph()
	for _, pg := range (ProportionalityPolicy{R: r}).Evaluate(g, next) {
		if pg.Flagged {
			t.Errorf("flash crowd flagged: %+v", pg)
		}
	}
}

func TestProportionalityUnilateralSurgeFlagged(t *testing.T) {
	g, assign, nodes := fixture()
	r := Learn(g, assign)
	// Only be->db surges 100x while fe->be stays flat: exfil-like.
	nextM := graphtest.NewModel(graph.FacetIP)
	base := graph.Counters{Bytes: 10_000, Packets: 10, Conns: 2}
	nextM.Add(nodes["fe1"], nodes["be1"], base)
	nextM.Add(nodes["fe1"], nodes["be2"], base)
	nextM.Add(nodes["fe2"], nodes["be1"], base)
	nextM.Add(nodes["fe2"], nodes["be2"], base)
	nextM.Add(nodes["be1"], nodes["db1"], graph.Counters{Bytes: 2_000_000, Packets: 2000, Conns: 3})
	nextM.Add(nodes["be2"], nodes["db1"], graph.Counters{Bytes: 2_000_000, Packets: 2000, Conns: 3})
	next := nextM.Graph()
	got := (ProportionalityPolicy{R: r}).Evaluate(g, next)
	var flagged []PairGrowth
	for _, pg := range got {
		if pg.Flagged {
			flagged = append(flagged, pg)
		}
	}
	if len(flagged) != 1 {
		t.Fatalf("flagged = %+v, want exactly the be-db pair", flagged)
	}
	if flagged[0].Pair != pairOf(1, 2) {
		t.Errorf("flagged pair = %+v, want (1,2)", flagged[0].Pair)
	}
}

func TestProportionalityMinBytesFloor(t *testing.T) {
	g, assign, nodes := fixture()
	r := Learn(g, assign)
	nextM := graphtest.NewModel(graph.FacetIP)
	nextM.Add(nodes["fe1"], nodes["be1"], graph.Counters{Bytes: 10_000})
	// Tiny pair grows 100x but is under the floor.
	nextM.Add(nodes["be1"], nodes["db1"], graph.Counters{Bytes: 900})
	next := nextM.Graph()
	for _, pg := range (ProportionalityPolicy{R: r, MinBytes: 100_000}).Evaluate(g, next) {
		if pg.Flagged {
			t.Errorf("pair under MinBytes floor flagged: %+v", pg)
		}
	}
}

func TestPairOfNormalizes(t *testing.T) {
	if pairOf(3, 1) != (SegPair{A: 1, B: 3}) || pairOf(1, 3) != (SegPair{A: 1, B: 3}) {
		t.Error("pairOf not normalizing")
	}
}
