package graph_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	. "cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

// TestFrozenEquivalence is the accessor-vs-model oracle: graphs assembled
// from graphtest models — every shape, with self-loops, isolated nodes,
// one-way and zero-byte edges and per-edge series — must answer every read
// accessor, and the Undirected, AdjacencyMatrix, ComputeStats, Collapse,
// Diff and Merge analyses built on them, exactly as the model's own maps
// do. The model side reads only its maps, never a graph it assembled, so a
// bug in the CSR layout or an accessor cannot hide behind a shared path.
func TestFrozenEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		from := graphtest.Cases(seed + 100)
		for i, c := range graphtest.Cases(seed) {
			withSeries(c.M, rng, naiveT0)
			c.M.Start, c.M.End = naiveT0, naiveT0.Add(time.Hour)
			g := c.M.Graph()
			if err := checkAccessors(g, c.M); err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.Name, err)
			}
			for _, th := range []float64{0.01, 0.1} {
				opts := CollapseOptions{Threshold: th, Keep: func(n Node) bool { return n == graphtest.Node(300) }}
				if err := checkAccessors(g.Collapse(opts), collapseModel(c.M, opts)); err != nil {
					t.Fatalf("seed %d %s: Collapse(%g): %v", seed, c.Name, th, err)
				}
			}
			other := from[(i+1)%len(from)]
			for _, pair := range [][2]*graphtest.Model{{c.M, other.M}, {other.M, c.M}, {c.M, graphtest.NewModel(FacetIP)}} {
				if got, want := Diff(pair[0].Graph(), pair[1].Graph()), naiveDiff(pair[0], pair[1]); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s: Diff diverges from the model\n got: %+v\nwant: %+v", seed, c.Name, got, want)
				}
			}
			// Merge folds into an empty graph and then into a non-empty
			// one; the argument is only read.
			want := graphtest.NewModel(FacetIP)
			want.Merge(other.M)
			want.Merge(c.M)
			got := New(FacetIP)
			got.Merge(other.G)
			got.Merge(g)
			if err := checkAccessors(got, want); err != nil {
				t.Fatalf("seed %d %s: Merge: %v", seed, c.Name, err)
			}
			if err := c.M.Check(g); err != nil {
				t.Fatalf("seed %d %s: Merge changed its argument: %v", seed, c.Name, err)
			}
		}
	}
}

// checkAccessors compares every read accessor of g with the same question
// answered from m's maps.
func checkAccessors(g *Graph, m *graphtest.Model) error {
	if err := m.Check(g); err != nil {
		return err
	}
	nodes := sortedNodes(m)
	var each []Node
	g.EachNode(func(n Node) { each = append(each, n) })
	if !slices.Equal(g.Nodes(), nodes) || !slices.Equal(each, nodes) {
		return fmt.Errorf("Nodes/EachNode not the model's nodes in Node.Less order")
	}
	var err error
	var last [2]Node
	k := 0
	g.EachOut(func(src, dst Node, e *Edge) {
		if k > 0 && cmp.Or(last[0].Compare(src), last[1].Compare(dst)) >= 0 {
			err = fmt.Errorf("EachOut: %v->%v after %v->%v", src, dst, last[0], last[1])
		}
		if me := m.Out[src][dst]; me == nil || me.Counters != e.Counters {
			err = fmt.Errorf("EachOut: %v->%v %+v, model %+v", src, dst, e.Counters, me)
		}
		last, k = [2]Node{src, dst}, k+1
	})
	if err != nil || k != g.NumDirectedEdges() {
		return fmt.Errorf("EachOut visited %d edges: %v", k, err)
	}
	csrNodes, rowOff, cols, edges := g.CSR()
	if !slices.Equal(csrNodes, nodes) || len(rowOff) != len(nodes)+1 || int(rowOff[len(nodes)]) != len(edges) {
		return fmt.Errorf("CSR arrays have the wrong shape")
	}
	for i := range csrNodes {
		for k := rowOff[i]; k < rowOff[i+1]; k++ {
			if me := m.Out[csrNodes[i]][csrNodes[cols[k]]]; me == nil || me.Counters != edges[k].Counters ||
				(k > rowOff[i] && cols[k-1] >= cols[k]) {
				return fmt.Errorf("CSR row %v entry %d disagrees with the model", csrNodes[i], k)
			}
		}
	}

	var total Counters
	for _, n := range nodes {
		nbr := neighbors(m, n)
		if !g.HasNode(n) || g.Degree(n) != len(nbr) || !reflect.DeepEqual(g.Neighbors(n), nbr) {
			return fmt.Errorf("%v: HasNode %v, Degree %d, Neighbors %v; model %d %v", n, g.HasNode(n), g.Degree(n), g.Neighbors(n), len(nbr), nbr)
		}
		for _, met := range []Metric{Bytes, Packets, Conns} {
			if got, want := g.NodeStrength(n, met), strength(m, n, met); got != want {
				return fmt.Errorf("%v: NodeStrength(%v) %d, model %d", n, met, got, want)
			}
		}
		for _, o := range nodes {
			if got, want := g.PairCounters(n, o), pairCounters(m, n, o); got != want {
				return fmt.Errorf("PairCounters(%v, %v) %+v, model %+v", n, o, got, want)
			}
			if (g.OutEdge(n, o) == nil) != (m.Out[n][o] == nil) {
				return fmt.Errorf("OutEdge(%v, %v) presence differs from the model", n, o)
			}
		}
		for _, e := range m.Out[n] {
			total.Add(e.Counters)
		}
	}
	absent := IPNode(netip.MustParseAddr("192.0.2.99"))
	if g.HasNode(absent) || g.Degree(absent) != 0 || len(g.Neighbors(absent)) != 0 ||
		g.NodeStrength(absent, Bytes) != 0 || len(nodes) > 0 && g.OutEdge(absent, nodes[0]) != nil {
		return fmt.Errorf("an absent node answers as present")
	}
	if g.TotalTraffic() != total {
		return fmt.Errorf("TotalTraffic %+v, model %+v", g.TotalTraffic(), total)
	}
	if got, want := g.UndirectedEdges(), undirectedEdges(m); !slices.Equal(got, want) {
		return fmt.Errorf("UndirectedEdges\n got: %v\nwant: %v", got, want)
	}
	if err := viewAgrees(g, g.Undirected()); err != nil {
		return err
	}
	for _, met := range []Metric{Bytes, Packets, Conns} {
		if got, want := g.AdjacencyMatrix(met), adjacency(m, met); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("AdjacencyMatrix(%v) differs from the model", met)
		}
	}
	if got, want := g.ComputeStats(), stats(m); got != want {
		return fmt.Errorf("ComputeStats %+v, model %+v", got, want)
	}
	return nil
}

func sortedNodes(m *graphtest.Model) []Node {
	nodes := make([]Node, 0, len(m.Nodes))
	for n := range m.Nodes {
		nodes = append(nodes, n)
	}
	slices.SortFunc(nodes, Node.Compare)
	return nodes
}

// neighbors is every node n sends to or receives from, itself included
// when it has a self-loop.
func neighbors(m *graphtest.Model, n Node) map[Node]struct{} {
	set := make(map[Node]struct{})
	for dst := range m.Out[n] {
		set[dst] = struct{}{}
	}
	for src, row := range m.Out {
		if row[n] != nil {
			set[src] = struct{}{}
		}
	}
	return set
}

// strength sums n's row and column, so a self-loop counts twice.
func strength(m *graphtest.Model, n Node, met Metric) uint64 {
	var s uint64
	for _, e := range m.Out[n] {
		s += e.Get(met)
	}
	for _, row := range m.Out {
		if e := row[n]; e != nil {
			s += e.Get(met)
		}
	}
	return s
}

// pairCounters sums both directions between a and b, so a self-loop counts
// twice.
func pairCounters(m *graphtest.Model, a, b Node) Counters {
	var c Counters
	if e := m.Out[a][b]; e != nil {
		c.Add(e.Counters)
	}
	if e := m.Out[b][a]; e != nil {
		c.Add(e.Counters)
	}
	return c
}

func undirectedEdges(m *graphtest.Model) []UndirectedEdge {
	var out []UndirectedEdge
	nodes := sortedNodes(m)
	for i, a := range nodes {
		for _, b := range nodes[i:] {
			if m.Out[a][b] != nil || m.Out[b][a] != nil {
				out = append(out, UndirectedEdge{A: a, B: b, Counters: pairCounters(m, a, b)})
			}
		}
	}
	return out
}

func adjacency(m *graphtest.Model, met Metric) *Adjacency {
	nodes := sortedNodes(m)
	a := &Adjacency{Order: nodes, N: len(nodes), M: make([]float64, len(nodes)*len(nodes))}
	for i, src := range nodes {
		for j, dst := range nodes {
			if e := m.Out[src][dst]; e != nil {
				a.M[i*a.N+j] = float64(e.Get(met))
			}
		}
	}
	return a
}

// stats is ComputeStats from the maps.
func stats(m *graphtest.Model) Stats {
	s := Stats{Facet: m.Facet, Nodes: len(m.Nodes)}
	sum, loops := 0, 0
	for _, n := range sortedNodes(m) {
		d := len(neighbors(m, n))
		sum += d
		s.MaxDeg = max(s.MaxDeg, d)
		if m.Out[n][n] != nil {
			loops++
		}
		for _, e := range m.Out[n] {
			s.Bytes, s.Packets, s.Conns = s.Bytes+e.Bytes, s.Packets+e.Packets, s.Conns+e.Conns
		}
	}
	s.Edges = (sum - loops) / 2 // a self-loop is a neighbour but not a pair
	if s.Nodes > 0 {
		s.MeanDeg = float64(sum) / float64(s.Nodes)
	}
	if s.Nodes >= 2 {
		s.Density = float64(s.Edges) / (float64(s.Nodes) * float64(s.Nodes-1) / 2)
	}
	return s
}

// collapseModel is Collapse over the maps: nodes below the share threshold
// on every metric fold into Collapsed, edges whose ends then coincide drop.
func collapseModel(m *graphtest.Model, opts CollapseOptions) *graphtest.Model {
	var total Counters
	for _, row := range m.Out {
		for _, e := range row {
			total.Add(e.Counters)
		}
	}
	keep := make(map[Node]bool)
	for n := range m.Nodes {
		for _, met := range []Metric{Bytes, Packets, Conns} {
			if tot := total.Get(met); tot > 0 && float64(strength(m, n, met)) >= opts.Threshold*float64(2*tot) {
				keep[n] = true
			}
		}
		if opts.Keep != nil && opts.Keep(n) {
			keep[n] = true
		}
	}
	to := func(n Node) Node {
		if keep[n] {
			return n
		}
		return Collapsed
	}
	out := graphtest.NewModel(m.Facet)
	out.Start, out.End = m.Start, m.End
	for n := range keep {
		out.Vertex(n)
	}
	for src, row := range m.Out {
		for dst, e := range row {
			if to(src) != to(dst) {
				out.Add(to(src), to(dst), e.Counters)
			}
		}
	}
	return out
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

// synthSubscription builds a hypersparse ~n-node subscription graph: every
// node talks to a handful of hub services plus a few random peers — the
// shape §3's 100K-node subscriptions take.
func synthSubscription(n int) *Graph {
	m := graphtest.NewModel(FacetIP)
	rng := rand.New(rand.NewSource(42))
	addr := func(i int) Node {
		return IPNode(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}))
	}
	const hubs = 64
	for i := hubs; i < n; i++ {
		m.Add(addr(i), addr(i%hubs), Counters{Bytes: uint64(i), Packets: 2, Conns: 1})
		if rng.Intn(4) == 0 {
			m.Add(addr(i), addr(hubs+rng.Intn(n-hubs)), Counters{Bytes: 100, Packets: 1, Conns: 1})
		}
	}
	return m.Graph()
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFrozenBytesPerEdge pins the CSR form's memory budget: on a 100K-node
// synthetic subscription, the measured heap per directed edge — node
// table, offsets, columns, counter slab and CSC mirror, ≈105 B — stays
// within 128 B.
func TestFrozenBytesPerEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement on a 100K-node graph")
	}
	const budget = 128
	base := heapAlloc()
	g := synthSubscription(100_000)
	used := int64(heapAlloc() - base)
	runtime.KeepAlive(g)
	if used <= 0 {
		t.Skipf("heap measurement unusable: %d B", used)
	}
	perEdge := float64(used) / float64(g.NumDirectedEdges())
	t.Logf("%d B over %d directed edges: %.1f B/edge (budget %d)", used, g.NumDirectedEdges(), perEdge, budget)
	if perEdge > budget {
		t.Fatalf("CSR graph holds %.1f B per directed edge, budget %d", perEdge, budget)
	}
}
