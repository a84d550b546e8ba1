package graph

import (
	"time"

	"cloudgraph/internal/trace"
)

// Counters is one direction's worth of traffic between a node pair.
type Counters struct {
	Bytes   uint64
	Packets uint64
	Conns   uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Bytes += o.Bytes
	c.Packets += o.Packets
	c.Conns += o.Conns
}

// Get returns the counter selected by m.
func (c Counters) Get(m Metric) uint64 {
	switch m {
	case Bytes:
		return c.Bytes
	case Packets:
		return c.Packets
	default:
		return c.Conns
	}
}

// Sample is one aggregation interval of an edge's time series.
type Sample struct {
	Start time.Time
	Counters
}

// Edge is the directed traffic from one node to another, with the summed
// counters and, when the builder is configured to keep them, the
// per-interval time series (§1: "embed timeseries in the node and edge
// attributes of one graph").
type Edge struct {
	Counters
	Series []Sample
}

// Graph is a communication graph over one time window, held in the
// hypersparse CSR form (see frozen): assembled from tuples once — by a
// Builder, FromIndex, Merge, FoldRollup or Collapse — and only read after
// that. Edges are stored directed (src's row carries what src sent to dst);
// undirected views are derived. The zero value is not usable; call New for
// an empty graph.
type Graph struct {
	Facet Facet
	Start time.Time
	End   time.Time
	// Traces lists the trace contexts of the sampled records folded into
	// this window, attached by the engine when the window completes so
	// downstream bus consumers (the store append, the timeline) can record
	// their own spans against the same trace IDs. Nil when tracing is off
	// or no sampled record landed in the window; never serialized.
	Traces []trace.Context
	edges  int // number of unordered connected pairs
	fz     *frozen
}

// New returns an empty graph with the given facet, which Merge can fold
// graphs into.
func New(f Facet) *Graph { return newGraph(f, csr(nil, nil, nil)) }

func newGraph(f Facet, fz *frozen) *Graph { return &Graph{Facet: f, edges: fz.pairs(), fz: fz} }

// Freeze does nothing.
//
// Deprecated: every Graph is built in CSR form; there is nothing to freeze.
func (g *Graph) Freeze() {}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.fz.nodes) }

// NumEdges returns the number of unordered communicating pairs, the quantity
// Table 1 reports.
func (g *Graph) NumEdges() int { return g.edges }

// NumDirectedEdges returns the number of directed edges.
func (g *Graph) NumDirectedEdges() int { return len(g.fz.edges) }

// HasNode reports whether n is in the graph.
func (g *Graph) HasNode(n Node) bool {
	_, ok := g.fz.nodeID(n)
	return ok
}

// EachNode calls fn for every node, in Node.Less order.
func (g *Graph) EachNode(fn func(Node)) {
	for _, n := range g.fz.nodes {
		fn(n)
	}
}

// Nodes returns all nodes in Node.Less order, in a fresh slice.
func (g *Graph) Nodes() []Node { return append([]Node(nil), g.fz.nodes...) }

// OutEdge returns the directed edge src->dst, or nil.
func (g *Graph) OutEdge(src, dst Node) *Edge { return g.fz.outEdge(src, dst) }

// PairCounters returns the total traffic between a and b in both directions.
func (g *Graph) PairCounters(a, b Node) Counters {
	var c Counters
	if e := g.OutEdge(a, b); e != nil {
		c.Add(e.Counters)
	}
	if e := g.OutEdge(b, a); e != nil {
		c.Add(e.Counters)
	}
	return c
}

// Neighbors returns the set of nodes n exchanges traffic with in either
// direction. The returned map is freshly allocated.
func (g *Graph) Neighbors(n Node) map[Node]struct{} {
	set := make(map[Node]struct{})
	fz := g.fz
	i, ok := fz.nodeID(n)
	if !ok {
		return set
	}
	for _, j := range fz.cols[fz.rowOff[i]:fz.rowOff[i+1]] {
		set[fz.nodes[j]] = struct{}{}
	}
	for _, j := range fz.inSrc[fz.inOff[i]:fz.inOff[i+1]] {
		set[fz.nodes[j]] = struct{}{}
	}
	return set
}

// Degree returns the undirected degree of n.
func (g *Graph) Degree(n Node) int {
	i, ok := g.fz.nodeID(n)
	if !ok {
		return 0
	}
	return g.fz.degree(i)
}

// NodeStrength returns the total traffic n exchanges (sent + received) under
// metric m — its row+column sum in the adjacency matrix.
func (g *Graph) NodeStrength(n Node, m Metric) uint64 {
	fz := g.fz
	i, ok := fz.nodeID(n)
	if !ok {
		return 0
	}
	var total uint64
	for k := fz.rowOff[i]; k < fz.rowOff[i+1]; k++ {
		total += fz.edges[k].Get(m)
	}
	for _, k := range fz.inEdge[fz.inOff[i]:fz.inOff[i+1]] {
		total += fz.edges[k].Get(m)
	}
	return total
}

// TotalTraffic returns the summed edge counters over the whole graph.
func (g *Graph) TotalTraffic() Counters {
	var total Counters
	for i := range g.fz.edges {
		total.Add(g.fz.edges[i].Counters)
	}
	return total
}

// UndirectedEdge is one unordered communicating pair with combined traffic.
type UndirectedEdge struct {
	A, B Node
	Counters
}

// UndirectedEdges returns every unordered pair with combined counters, in
// (A, B) Node.Less order: the undirected view's entries on or right of the
// diagonal, row by row. A self-loop is one pair with its counters doubled,
// as in the view.
func (g *Graph) UndirectedEdges() []UndirectedEdge {
	u := g.Undirected()
	edges := make([]UndirectedEdge, 0, g.edges)
	for i := range u.Nodes {
		nbr, pair := u.Row(int32(i))
		for k, j := range nbr {
			if j >= int32(i) {
				edges = append(edges, UndirectedEdge{A: u.Nodes[i], B: u.Nodes[j], Counters: pair[k]})
			}
		}
	}
	return edges
}

// EachOut calls fn for every directed edge, in (src, dst) Node.Less order.
func (g *Graph) EachOut(fn func(src, dst Node, e *Edge)) {
	fz := g.fz
	for i := range fz.nodes {
		for k := fz.rowOff[i]; k < fz.rowOff[i+1]; k++ {
			fn(fz.nodes[i], fz.nodes[fz.cols[k]], &fz.edges[k])
		}
	}
}

// Density returns edges / possible undirected pairs.
func (g *Graph) Density() float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	return float64(g.edges) / (float64(n) * float64(n-1) / 2)
}

// MemBytes returns the heap footprint of the graph's CSR arrays (node index,
// offsets, columns, edge slab, CSC mirror), excluding edge series backing
// arrays.
func (g *Graph) MemBytes() int64 {
	const nodeSize = 48 // netip.Addr(24) + port(2)+pad + string header(16)
	const edgeSize = 48 // Counters(24) + series slice header(24)
	fz := g.fz
	return int64(len(fz.nodes))*nodeSize +
		int64(len(fz.rowOff)+len(fz.inOff))*4 +
		int64(len(fz.cols)+len(fz.inSrc)+len(fz.inEdge))*4 +
		int64(len(fz.edges))*edgeSize
}
