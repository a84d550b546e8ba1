// Package graphtest is the test side of package graph: Model, a plain-map
// graph that tests build their inputs in and check graph's CSR form
// against, seeded random graphs in the shapes the analysis kernels treat
// differently, for differential tests that drive a kernel and its naive
// reference over the same input, and Reverse, which builds the second
// report of a flow between two monitored VMs.
package graphtest

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
)

// Model is a communication graph in plain Go maps, the reference graph's
// CSR form is checked against. It shares no code with graph's assembly:
// Add sums onto a map entry, and Graph hands the tuples to graph.FromIndex,
// so a reference that accumulates here and compares against these maps
// cannot hide a bug in the CSR layout.
type Model struct {
	Facet      graph.Facet
	Start, End time.Time
	// Nodes holds every node, isolated or not; Out[src][dst] every
	// directed edge.
	Nodes map[graph.Node]bool
	Out   map[graph.Node]map[graph.Node]*graph.Edge
}

// NewModel returns an empty model with the given facet.
func NewModel(f graph.Facet) *Model {
	return &Model{Facet: f, Nodes: make(map[graph.Node]bool), Out: make(map[graph.Node]map[graph.Node]*graph.Edge)}
}

// Add accumulates c onto the directed edge src->dst, creating the nodes
// and the edge as needed.
func (m *Model) Add(src, dst graph.Node, c graph.Counters) {
	m.Vertex(src)
	m.Vertex(dst)
	row := m.Out[src]
	if row == nil {
		row = make(map[graph.Node]*graph.Edge)
		m.Out[src] = row
	}
	e := row[dst]
	if e == nil {
		e = &graph.Edge{}
		row[dst] = e
	}
	e.Counters.Add(c)
}

// Vertex adds n, which may stay isolated.
func (m *Model) Vertex(n graph.Node) { m.Nodes[n] = true }

// Merge folds o into m under graph.Graph.Merge's contract: nodes and edges
// add, and the window widens to cover both.
func (m *Model) Merge(o *Model) {
	for n := range o.Nodes {
		m.Vertex(n)
	}
	for src, row := range o.Out {
		for dst, e := range row {
			m.Add(src, dst, e.Counters)
		}
	}
	if m.Start.IsZero() || (!o.Start.IsZero() && o.Start.Before(m.Start)) {
		m.Start = o.Start
	}
	if o.End.After(m.End) {
		m.End = o.End
	}
}

// Graph assembles the model's tuples, in map order, through
// graph.FromIndex.
func (m *Model) Graph() *graph.Graph {
	nodes := make([]graph.Node, 0, len(m.Nodes))
	id := make(map[graph.Node]uint64, len(m.Nodes))
	for n := range m.Nodes {
		id[n] = uint64(len(nodes))
		nodes = append(nodes, n)
	}
	var keys []uint64
	var edges []graph.Edge
	for src, row := range m.Out {
		for dst, e := range row {
			keys = append(keys, id[src]<<32|id[dst])
			edges = append(edges, *e)
		}
	}
	g, ok := graph.FromIndex(m.Facet, nodes, keys, edges)
	if !ok {
		panic("graphtest: FromIndex rejected a model's distinct edges")
	}
	g.Start, g.End = m.Start, m.End
	return g
}

// Of copies g into a fresh model.
func Of(g *graph.Graph) *Model {
	m := NewModel(g.Facet)
	m.Start, m.End = g.Start, g.End
	g.EachNode(m.Vertex)
	g.EachOut(func(src, dst graph.Node, e *graph.Edge) { m.Add(src, dst, e.Counters) })
	return m
}

// PairCounters returns the traffic between a and b in both directions: the
// edges a->b and b->a summed, so a self-loop counts twice.
func (m *Model) PairCounters(a, b graph.Node) graph.Counters {
	var c graph.Counters
	if e := m.Out[a][b]; e != nil {
		c.Add(e.Counters)
	}
	if e := m.Out[b][a]; e != nil {
		c.Add(e.Counters)
	}
	return c
}

// Neighbors returns the set of nodes n has an edge to or from.
func (m *Model) Neighbors(n graph.Node) map[graph.Node]struct{} {
	set := make(map[graph.Node]struct{})
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

// Reverse returns r as the remote side would have logged it, with the
// endpoints and the directional counters swapped: the second copy of an
// intra-subscription flow in the stream.
func Reverse(r flowlog.Record) flowlog.Record {
	return flowlog.Record{
		Time:        r.Time,
		LocalIP:     r.RemoteIP,
		LocalPort:   r.RemotePort,
		RemoteIP:    r.LocalIP,
		RemotePort:  r.LocalPort,
		PacketsSent: r.PacketsRcvd,
		PacketsRcvd: r.PacketsSent,
		BytesSent:   r.BytesRcvd,
		BytesRcvd:   r.BytesSent,
	}
}

// Check reports how g differs from the model — facet, window, node set,
// pair count, or a directed edge's counters — or nil if it
// holds the same graph.
func (m *Model) Check(g *graph.Graph) error {
	if g.Facet != m.Facet || !g.Start.Equal(m.Start) || !g.End.Equal(m.End) {
		return fmt.Errorf("graph is %v [%v, %v), model %v [%v, %v)", g.Facet, g.Start, g.End, m.Facet, m.Start, m.End)
	}
	if g.NumNodes() != len(m.Nodes) {
		return fmt.Errorf("graph has %d nodes, model %d", g.NumNodes(), len(m.Nodes))
	}
	for _, n := range g.Nodes() {
		if !m.Nodes[n] {
			return fmt.Errorf("graph has node %v, model does not", n)
		}
	}
	pairs, directed := make(map[[2]graph.Node]bool), 0
	for src, row := range m.Out {
		for dst, e := range row {
			directed++
			if a, b := src, dst; a != b {
				if b.Less(a) {
					a, b = b, a
				}
				pairs[[2]graph.Node{a, b}] = true
			}
			ge := g.OutEdge(src, dst)
			if ge == nil || *ge != *e {
				return fmt.Errorf("edge %v->%v: graph %+v, model %+v", src, dst, ge, e)
			}
		}
	}
	if g.NumDirectedEdges() != directed || g.NumEdges() != len(pairs) {
		return fmt.Errorf("graph has %d directed edges and %d pairs, model %d and %d",
			g.NumDirectedEdges(), g.NumEdges(), directed, len(pairs))
	}
	return nil
}

// Case is one generated graph: the model it was built in and the graph
// assembled from it.
type Case struct {
	Name string
	M    *Model
	G    *graph.Graph
}

// Node returns the i-th node of the shared address pool; every case draws
// its nodes from it, so two cases overlap and can be diffed.
func Node(i int) graph.Node {
	return graph.IPNode(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}))
}

// Cases returns one graph per shape for the seed: sparse, dense, stars,
// overlapping equal-byte cliques, and a mix. Every shape also carries
// one-way edges, zero-byte edges, isolated nodes and a self-loop, and
// draws byte counts from a handful of values so ties are common.
func Cases(seed int64) []Case {
	rng := rand.New(rand.NewSource(seed))
	shapes := []struct {
		name string
		fill func(*builder)
	}{
		{"sparse", func(b *builder) { b.random(40, 60) }},
		{"dense", func(b *builder) { b.random(24, 200) }},
		{"stars", func(b *builder) {
			for h := 0; h < 3; h++ {
				hub := b.rng.Intn(50)
				for s := 0; s < 10+b.rng.Intn(20); s++ {
					b.edge(hub, b.rng.Intn(50))
				}
			}
		}},
		{"cliques", func(b *builder) {
			// Overlapping cliques, every edge the same weight: growth is
			// decided by tie-breaks alone.
			for c := 0; c < 4; c++ {
				lo, size := c*5, 6+b.rng.Intn(4)
				for i := lo; i < lo+size; i++ {
					for j := i + 1; j < lo+size; j++ {
						b.m.Add(Node(i), Node(j), graph.Counters{Bytes: 100, Packets: 1, Conns: 1})
					}
				}
			}
		}},
		{"mix", func(b *builder) {
			b.random(60, 120)
			for i := 0; i < 8; i++ {
				for j := i + 1; j < 8; j++ {
					b.edge(i, j)
				}
			}
			hub := 30
			for s := 0; s < 40; s++ {
				b.edge(hub, s)
			}
		}},
	}
	out := make([]Case, len(shapes))
	for i, s := range shapes {
		b := &builder{rng: rng, m: NewModel(graph.FacetIP)}
		s.fill(b)
		b.oddities()
		out[i] = Case{Name: s.name, M: b.m, G: b.m.Graph()}
	}
	return out
}

type builder struct {
	rng *rand.Rand
	m   *Model
}

// edge adds traffic between nodes i and j: usually both directions,
// sometimes one; bytes from a small set (0 included) so equal weights and
// zero-byte pairs are common.
func (b *builder) edge(i, j int) {
	weights := []uint64{0, 100, 100, 200, 5000, uint64(b.rng.Intn(1_000_000))}
	c := func() graph.Counters {
		return graph.Counters{Bytes: weights[b.rng.Intn(len(weights))], Packets: uint64(1 + b.rng.Intn(9)), Conns: 1}
	}
	b.m.Add(Node(i), Node(j), c())
	if b.rng.Intn(3) > 0 {
		b.m.Add(Node(j), Node(i), c())
	}
}

// random adds m random edges over the first n pool nodes.
func (b *builder) random(n, m int) {
	for k := 0; k < m; k++ {
		b.edge(b.rng.Intn(n), b.rng.Intn(n))
	}
}

// oddities adds the structural corner cases every shape must survive.
func (b *builder) oddities() {
	b.m.Vertex(Node(200 + b.rng.Intn(8)))
	b.m.Vertex(Node(300))
	self := Node(b.rng.Intn(10))
	b.m.Add(self, self, graph.Counters{Bytes: 700, Packets: 2, Conns: 1})
	b.m.Add(Node(250), Node(b.rng.Intn(10)), graph.Counters{Packets: 1, Conns: 1})
}
