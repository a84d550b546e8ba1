package graph

import (
	"sort"
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

// Graph is a communication graph over one time window. Edges are stored
// directed (out[src][dst] carries what src sent to dst); undirected views
// are derived. The zero value is not usable; call New.
//
// A Graph has two representations behind one API: the mutable map-backed
// form that AddEdge, Collapse and roll-up accumulators build, and the
// immutable hypersparse CSR form (see Freeze) every sealed window is in —
// a Builder emits it directly. Every read accessor works on both; mutation
// on a frozen graph thaws it first.
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
	out    map[Node]map[Node]*Edge
	in     map[Node]map[Node]*Edge
	nodes  map[Node]struct{}
	edges  int     // number of unordered connected pairs
	fz     *frozen // non-nil iff the graph is in CSR form (maps are nil)
}

// New returns an empty graph with the given facet.
func New(f Facet) *Graph {
	return &Graph{
		Facet: f,
		out:   make(map[Node]map[Node]*Edge),
		in:    make(map[Node]map[Node]*Edge),
		nodes: make(map[Node]struct{}),
	}
}

// addDirected accumulates counters onto the directed edge src->dst, creating
// nodes and the edge as needed, and returns the edge.
func (g *Graph) addDirected(src, dst Node, c Counters) *Edge {
	g.thawForWrite()
	g.nodes[src] = struct{}{}
	g.nodes[dst] = struct{}{}
	m := g.out[src]
	if m == nil {
		m = make(map[Node]*Edge)
		g.out[src] = m
	}
	e := m[dst]
	if e == nil {
		e = &Edge{}
		m[dst] = e
		im := g.in[dst]
		if im == nil {
			im = make(map[Node]*Edge)
			g.in[dst] = im
		}
		im[src] = e
		// A new unordered pair is connected iff the reverse edge did
		// not already exist.
		if rev := g.out[dst]; rev == nil || rev[src] == nil {
			g.edges++
		}
	}
	e.Counters.Add(c)
	return e
}

// AddEdge accumulates counters onto the directed edge src->dst. It is the
// low-level mutation used by the builder and by tests.
func (g *Graph) AddEdge(src, dst Node, c Counters) { g.addDirected(src, dst, c) }

// AddNode ensures n exists even if isolated.
func (g *Graph) AddNode(n Node) {
	g.thawForWrite()
	g.nodes[n] = struct{}{}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if g.fz != nil {
		return len(g.fz.nodes)
	}
	return len(g.nodes)
}

// NumEdges returns the number of unordered communicating pairs, the quantity
// Table 1 reports.
func (g *Graph) NumEdges() int { return g.edges }

// NumDirectedEdges returns the number of directed edges.
func (g *Graph) NumDirectedEdges() int {
	if g.fz != nil {
		return len(g.fz.edges)
	}
	var m int
	for _, row := range g.out {
		m += len(row)
	}
	return m
}

// HasNode reports whether n is in the graph.
func (g *Graph) HasNode(n Node) bool {
	if g.fz != nil {
		_, ok := g.fz.nodeID(n)
		return ok
	}
	_, ok := g.nodes[n]
	return ok
}

// EachNode calls fn for every node. Iteration order is unspecified; use
// Nodes when determinism matters.
func (g *Graph) EachNode(fn func(Node)) {
	if g.fz != nil {
		for _, n := range g.fz.nodes {
			fn(n)
		}
		return
	}
	for n := range g.nodes {
		fn(n)
	}
}

// Nodes returns all nodes in deterministic order.
func (g *Graph) Nodes() []Node {
	if g.fz != nil {
		return append([]Node(nil), g.fz.nodes...)
	}
	ns := make([]Node, 0, len(g.nodes))
	for n := range g.nodes {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].Less(ns[j]) })
	return ns
}

// OutEdge returns the directed edge src->dst, or nil.
func (g *Graph) OutEdge(src, dst Node) *Edge {
	if g.fz != nil {
		return g.fz.outEdge(src, dst)
	}
	if m := g.out[src]; m != nil {
		return m[dst]
	}
	return nil
}

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
	if g.fz != nil {
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
	for dst := range g.out[n] {
		set[dst] = struct{}{}
	}
	for src := range g.in[n] {
		set[src] = struct{}{}
	}
	return set
}

// Degree returns the undirected degree of n.
func (g *Graph) Degree(n Node) int {
	if g.fz != nil {
		i, ok := g.fz.nodeID(n)
		if !ok {
			return 0
		}
		return g.fz.degree(i)
	}
	return len(g.Neighbors(n))
}

// NodeStrength returns the total traffic n exchanges (sent + received) under
// metric m — its row+column sum in the adjacency matrix.
func (g *Graph) NodeStrength(n Node, m Metric) uint64 {
	var total uint64
	if g.fz != nil {
		fz := g.fz
		i, ok := fz.nodeID(n)
		if !ok {
			return 0
		}
		for k := fz.rowOff[i]; k < fz.rowOff[i+1]; k++ {
			total += fz.edges[k].Get(m)
		}
		for _, k := range fz.inEdge[fz.inOff[i]:fz.inOff[i+1]] {
			total += fz.edges[k].Get(m)
		}
		return total
	}
	for _, e := range g.out[n] {
		total += e.Get(m)
	}
	for _, e := range g.in[n] {
		total += e.Get(m)
	}
	return total
}

// TotalTraffic returns the summed edge counters over the whole graph.
func (g *Graph) TotalTraffic() Counters {
	var total Counters
	if g.fz != nil {
		for i := range g.fz.edges {
			total.Add(g.fz.edges[i].Counters)
		}
		return total
	}
	for _, m := range g.out {
		for _, e := range m {
			total.Add(e.Counters)
		}
	}
	return total
}

// UndirectedEdge is one unordered communicating pair with combined traffic.
type UndirectedEdge struct {
	A, B Node
	Counters
}

// UndirectedEdges returns every unordered pair with combined counters, in
// deterministic order.
func (g *Graph) UndirectedEdges() []UndirectedEdge {
	edges := make([]UndirectedEdge, 0, g.edges)
	if g.fz != nil {
		fz := g.fz
		for i := range fz.nodes {
			for k := fz.rowOff[i]; k < fz.rowOff[i+1]; k++ {
				j := fz.cols[k]
				rev := fz.outIdx(j, int32(i))
				if j < int32(i) && rev >= 0 {
					continue // reverse edge will emit it
				}
				ue := UndirectedEdge{A: fz.nodes[i], B: fz.nodes[j], Counters: fz.edges[k].Counters}
				if rev >= 0 {
					ue.Counters.Add(fz.edges[rev].Counters)
				}
				if j < int32(i) {
					ue.A, ue.B = ue.B, ue.A
				}
				edges = append(edges, ue)
			}
		}
	} else {
		for src, m := range g.out {
			for dst, e := range m {
				// Emit each unordered pair once: from the lesser node, or
				// from src when the reverse edge doesn't exist.
				if dst.Less(src) {
					if rm := g.out[dst]; rm != nil && rm[src] != nil {
						continue // reverse edge will emit it
					}
				}
				ue := UndirectedEdge{A: src, B: dst, Counters: e.Counters}
				if rev := g.OutEdge(dst, src); rev != nil {
					ue.Counters.Add(rev.Counters)
				}
				if dst.Less(src) {
					ue.A, ue.B = ue.B, ue.A
				}
				edges = append(edges, ue)
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A.Less(edges[j].A)
		}
		return edges[i].B.Less(edges[j].B)
	})
	return edges
}

// EachOut calls fn for every directed edge. Iteration order is unspecified
// on the map form and deterministic on the frozen form; use
// Nodes/UndirectedEdges when determinism matters.
func (g *Graph) EachOut(fn func(src, dst Node, e *Edge)) {
	if g.fz != nil {
		fz := g.fz
		for i := range fz.nodes {
			for k := fz.rowOff[i]; k < fz.rowOff[i+1]; k++ {
				fn(fz.nodes[i], fz.nodes[fz.cols[k]], &fz.edges[k])
			}
		}
		return
	}
	for src, m := range g.out {
		for dst, e := range m {
			fn(src, dst, e)
		}
	}
}

// Subgraph returns the induced subgraph over keep (a fresh map-backed
// graph; edge counters are copied, it is a view for analysis).
func (g *Graph) Subgraph(keep map[Node]bool) *Graph {
	sub := New(g.Facet)
	sub.Start, sub.End = g.Start, g.End
	g.EachNode(func(n Node) {
		if keep[n] {
			sub.AddNode(n)
		}
	})
	g.EachOut(func(src, dst Node, e *Edge) {
		if keep[src] && keep[dst] {
			sub.addDirected(src, dst, e.Counters)
		}
	})
	return sub
}

// Density returns edges / possible undirected pairs.
func (g *Graph) Density() float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	return float64(g.edges) / (float64(n) * float64(n-1) / 2)
}

// MemBytes returns the approximate heap footprint of the graph's edge
// structure. For the frozen form it is an exact accounting of the CSR
// arrays; for the map form it is the conventional per-entry estimate the
// timeline's bytes-retained gauge has always used. Edge series backing
// arrays are excluded (both forms share them).
func (g *Graph) MemBytes() int64 {
	if g.fz != nil {
		return g.fz.memBytes()
	}
	// Map form: every node costs a set entry plus its inner-map headers;
	// every directed edge costs an out entry, an in entry and the Edge
	// allocation. Entry costs include average bucket overhead.
	const nodeCost = 160 // nodes set + out/in inner map headers
	const dirEdgeCost = 200
	return int64(len(g.nodes))*nodeCost + int64(g.NumDirectedEdges())*dirEdgeCost
}
