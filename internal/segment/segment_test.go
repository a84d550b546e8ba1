package segment

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []int32
		want float64
	}{
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 1},
		{[]int32{1, 2}, []int32{3, 4}, 0},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 0.5},
		{nil, nil, 0},
		{[]int32{1}, nil, 0},
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); got != c.want {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardSymmetricQuick(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa := dedupSorted(a)
		sb := dedupSorted(b)
		return Jaccard(sa, sb) == Jaccard(sb, sa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func dedupSorted(xs []uint8) []int32 {
	seen := make(map[uint8]bool)
	var out []int32
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, int32(x))
		}
	}
	// insertion sort (tiny inputs)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestLouvainTwoCliques(t *testing.T) {
	// Nodes 0-4 fully connected, nodes 5-9 fully connected, one weak
	// bridge. Louvain must find the two cliques.
	var pairs []simPair
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			pairs = append(pairs, simPair{a: i, b: j, w: 1})
			pairs = append(pairs, simPair{a: i + 5, b: j + 5, w: 1})
		}
	}
	pairs = append(pairs, simPair{a: 0, b: 5, w: 0.01})
	g := newWGraph(10, pairs)
	comm := louvain(g, 1e-9, 1)
	for i := 1; i < 5; i++ {
		if comm[i] != comm[0] {
			t.Errorf("node %d not with clique A: %v", i, comm)
		}
		if comm[i+5] != comm[5] {
			t.Errorf("node %d not with clique B: %v", i+5, comm)
		}
	}
	if comm[0] == comm[5] {
		t.Errorf("cliques merged: %v", comm)
	}
	if q := modularity(g, comm); q < 0.3 {
		t.Errorf("modularity = %v, want high", q)
	}
}

func TestLouvainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pairs []simPair
	for i := 0; i < 200; i++ {
		pairs = append(pairs, simPair{a: rng.Intn(40), b: rng.Intn(40), w: rng.Float64()})
	}
	run := func() []int { return louvain(newWGraph(40, pairs), 1e-9, 1) }
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("louvain not deterministic")
		}
	}
}

func TestLouvainEmptyAndSingleton(t *testing.T) {
	if got := louvain(newWGraph(0, nil), 1e-9, 1); len(got) != 0 {
		t.Errorf("empty graph: %v", got)
	}
	if got := louvain(newWGraph(3, nil), 1e-9, 1); len(got) != 3 {
		t.Errorf("isolated nodes: %v", got)
	}
}

func TestEvidence(t *testing.T) {
	if e := evidence([]int32{1, 2}, []int32{3, 4}); e != 0 {
		t.Errorf("no common neighbors: evidence = %v", e)
	}
	if e := evidence([]int32{1}, []int32{1}); e != 0.5 {
		t.Errorf("one common: evidence = %v, want 0.5", e)
	}
	if e := evidence([]int32{1, 2}, []int32{1, 2}); e != 0.75 {
		t.Errorf("two common: evidence = %v, want 0.75", e)
	}
}

// roleGraph builds a graph with explicit role structure: role peers never
// talk to each other but share most of their peer sets, and every role has
// a distinguishing neighbor role. Fanout subsets make within-role overlap
// high but imperfect, like real deployments — the pattern that defeats
// modularity clustering but not neighbor-overlap clustering. Note that
// neighbor-set clustering can only recover *structural* roles: two roles
// with identical peer sets are indistinguishable by construction (one of
// the paper's admitted "key mistakes").
func roleGraph() (*graph.Graph, map[graph.Node]string) {
	m := graphtest.NewModel(graph.FacetIP)
	truth := make(map[graph.Node]string)
	rng := rand.New(rand.NewSource(42))
	next := 1
	mkRole := func(role string, count int) []graph.Node {
		nodes := make([]graph.Node, count)
		for i := range nodes {
			nodes[i] = graph.IPNode(netip.AddrFrom4([4]byte{10, 0, 0, byte(next)}))
			next++
			truth[nodes[i]] = role
		}
		return nodes
	}
	lbs := mkRole("lb", 4)
	fes := mkRole("frontend", 12)
	bes := mkRole("backend", 10)
	dbs := mkRole("db", 8)
	caches := mkRole("cache", 6)
	backups := mkRole("backup", 4)

	connect := func(srcs, dsts []graph.Node, fanout int, c graph.Counters) {
		for _, s := range srcs {
			perm := rng.Perm(len(dsts))
			if fanout > len(dsts) {
				fanout = len(dsts)
			}
			for _, di := range perm[:fanout] {
				m.Add(s, dsts[di], c)
			}
		}
	}
	heavy := graph.Counters{Bytes: 50_000, Packets: 40, Conns: 9}
	light := graph.Counters{Bytes: 2_000, Packets: 4, Conns: 2}
	connect(lbs, fes, 10, light)   // lb -> most frontends
	connect(fes, bes, 8, heavy)    // fe -> most backends
	connect(bes, dbs, 6, heavy)    // be -> most dbs
	connect(bes, caches, 5, light) // be -> caches
	connect(dbs, backups, 3, light)
	g := m.Graph()
	return g, truth
}

func TestJaccardLouvainRecoversRoles(t *testing.T) {
	g, truth := roleGraph()
	a, err := Run(StrategyJaccardLouvain, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := Score(a, truth)
	if q.ARI < 0.7 {
		t.Errorf("Jaccard-Louvain ARI = %v, want ≥0.7 on role graph (got %d segments)", q.ARI, q.Segments)
	}
	if q.Purity < 0.7 || q.NMI < 0.7 {
		t.Errorf("quality = %+v", q)
	}
	// A tighter kNN filter resolves the finest roles on this fixture.
	a4, err := Run(StrategyJaccardLouvain, g, Options{TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if q4 := Score(a4, truth); q4.ARI < 0.8 {
		t.Errorf("Jaccard-Louvain(TopK=4) ARI = %v, want ≥0.8", q4.ARI)
	}
}

func TestModularityGroupsAcrossRoles(t *testing.T) {
	// The paper's Figure 3 point: modularity clustering groups nodes that
	// exchange data (frontend with backend), not role peers, so its
	// agreement with ground-truth roles must be clearly worse than the
	// Jaccard strategy's.
	g, truth := roleGraph()
	jac, err := Run(StrategyJaccardLouvain, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Run(StrategyModularityBytes, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qj, qm := Score(jac, truth), Score(mod, truth)
	if qm.ARI >= qj.ARI {
		t.Errorf("modularity ARI %v should be below jaccard ARI %v", qm.ARI, qj.ARI)
	}
}

func TestSimRankStrategiesRun(t *testing.T) {
	g, truth := roleGraph()
	for _, s := range []Strategy{StrategySimRank, StrategySimRankPP} {
		a, err := Run(s, g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		q := Score(a, truth)
		if q.Nodes != 44 {
			t.Errorf("%s scored %d nodes, want 44", s, q.Nodes)
		}
		// SimRank on this clean structure should still find role peers
		// similar (same neighborhoods).
		if q.Purity < 0.45 {
			t.Errorf("%s purity = %v, unexpectedly poor", s, q.Purity)
		}
	}
}

func TestRunUnknownStrategy(t *testing.T) {
	g, _ := roleGraph()
	if _, err := Run(Strategy("nope"), g, Options{}); err == nil {
		t.Error("want error for unknown strategy")
	}
}

func TestRunEmptyGraph(t *testing.T) {
	a, err := Run(StrategyJaccardLouvain, graph.New(graph.FacetIP), Options{})
	if err != nil || len(a) != 0 {
		t.Errorf("empty graph: %v, %v", a, err)
	}
}

func TestScorePerfectAndConstant(t *testing.T) {
	_, truth := roleGraph()
	perfect := make(Assignment)
	roleID := map[string]int{}
	for n, r := range truth {
		id, ok := roleID[r]
		if !ok {
			id = len(roleID)
			roleID[r] = id
		}
		perfect[n] = id
	}
	q := Score(perfect, truth)
	if q.ARI < 0.999 || q.NMI < 0.999 || q.Purity < 0.999 {
		t.Errorf("perfect assignment scored %+v", q)
	}
	// All-in-one segment: purity = largest role share; ARI near 0.
	constant := make(Assignment)
	for n := range truth {
		constant[n] = 0
	}
	qc := Score(constant, truth)
	if qc.ARI > 0.2 {
		t.Errorf("constant assignment ARI = %v, want ~0", qc.ARI)
	}
	if qc.Purity != 12.0/44.0 {
		t.Errorf("constant purity = %v, want 12/44", qc.Purity)
	}
}

func TestScoreIgnoresUnlabelled(t *testing.T) {
	g, truth := roleGraph()
	a, _ := Run(StrategyJaccardLouvain, g, Options{})
	extra := graph.Node{Name: "unlabelled"}
	a[extra] = 99
	q := Score(a, truth)
	if q.Nodes != 44 {
		t.Errorf("unlabelled node counted: %d", q.Nodes)
	}
}

func TestAssignmentHelpers(t *testing.T) {
	a := Assignment{
		graph.Node{Name: "a"}: 0,
		graph.Node{Name: "b"}: 0,
		graph.Node{Name: "c"}: 1,
	}
	if a.NumSegments() != 2 {
		t.Errorf("NumSegments = %d", a.NumSegments())
	}
	segs := a.Segments()
	if len(segs) != 2 || len(segs[0]) != 2 || len(segs[1]) != 1 {
		t.Errorf("Segments = %v", segs)
	}
}

func TestSegmentationDeterministic(t *testing.T) {
	g, _ := roleGraph()
	a1, _ := Run(StrategyJaccardLouvain, g, Options{})
	a2, _ := Run(StrategyJaccardLouvain, g, Options{})
	if len(a1) != len(a2) {
		t.Fatal("sizes differ")
	}
	for n, c := range a1 {
		if a2[n] != c {
			t.Fatalf("assignment differs at %v", n)
		}
	}
}

func TestResolutionControlsGranularity(t *testing.T) {
	g, _ := roleGraph()
	coarse, err := Run(StrategyJaccardLouvain, g, Options{Resolution: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Run(StrategyJaccardLouvain, g, Options{Resolution: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fine.NumSegments() < coarse.NumSegments() {
		t.Errorf("higher resolution should not yield fewer segments: %d < %d",
			fine.NumSegments(), coarse.NumSegments())
	}
}

// TestScratchReuseMatchesFresh segments a run of graphs of different sizes
// and shapes through one Scratch, every strategy and both kNN settings,
// and requires each Assignment to equal a fresh segmentation's: nothing a
// Scratch keeps from one graph may leak into the next.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var sc Scratch
	role, _ := roleGraph()
	graphs := []*graph.Graph{role}
	for seed := int64(1); seed <= 4; seed++ {
		for _, c := range graphtest.Cases(seed) {
			graphs = append(graphs, c.G)
		}
	}
	graphs = append(graphs, role)
	for _, opts := range []Options{{}, {TopK: -1}, {TopK: 2}} {
		for _, s := range Strategies() {
			for i, g := range graphs {
				u := g.Undirected()
				got, err := sc.RunView(s, u, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := RunView(s, u, opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v graph %d: reused Scratch gives %v, fresh %v", s, opts, i, got, want)
				}
			}
		}
	}
}
