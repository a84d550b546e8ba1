package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Adjacency is a dense adjacency-matrix view of a graph under one metric:
// Figure 4's representation. Index i corresponds to Order[i]; M[i*N+j]
// holds the traffic Order[i] sent to Order[j].
type Adjacency struct {
	Order []Node
	N     int
	M     []float64
}

// AdjacencyMatrix exports the graph as a dense matrix under metric m. Nodes
// are ordered deterministically (sorted), which for the synthetic clusters
// groups role peers together the way Figure 4's banded matrices do. Row i
// is node id i's CSR row.
func (g *Graph) AdjacencyMatrix(m Metric) *Adjacency {
	fz := g.fz
	n := len(fz.nodes)
	a := &Adjacency{Order: g.Nodes(), N: n, M: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for k := fz.rowOff[i]; k < fz.rowOff[i+1]; k++ {
			a.M[i*n+int(fz.cols[k])] = float64(fz.edges[k].Get(m))
		}
	}
	return a
}

// Symmetrized returns (M + Mᵀ)/2 as a flat slice, the form the PCA analysis
// consumes (eigendecomposition M = EDEᵀ assumes symmetry).
func (a *Adjacency) Symmetrized() []float64 {
	s := make([]float64, len(a.M))
	n := a.N
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := (a.M[i*n+j] + a.M[j*n+i]) / 2
			s[i*n+j] = v
			s[j*n+i] = v
		}
	}
	return s
}

// DOT renders the graph in Graphviz format, weighting edges by metric m and
// optionally coloring nodes by a label map (e.g. inferred roles, as in
// Figure 1). Nodes and edges appear in deterministic order.
func (g *Graph) DOT(m Metric, labels map[Node]int) string {
	var b strings.Builder
	b.WriteString("graph comm {\n  node [shape=point];\n")
	palette := []string{
		"#4363d8", "#e6194b", "#3cb44b", "#ffe119", "#f58231", "#911eb4",
		"#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
	}
	for _, n := range g.Nodes() {
		if labels != nil {
			c := palette[labels[n]%len(palette)]
			fmt.Fprintf(&b, "  %q [color=%q];\n", n.String(), c)
		} else {
			fmt.Fprintf(&b, "  %q;\n", n.String())
		}
	}
	edges := g.UndirectedEdges()
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Get(m) > edges[j].Get(m) })
	for _, e := range edges {
		fmt.Fprintf(&b, "  %q -- %q [weight=%d];\n", e.A.String(), e.B.String(), e.Get(m))
	}
	b.WriteString("}\n")
	return b.String()
}

// Stats summarizes a graph for Figure 2 / Table 1 style reporting.
type Stats struct {
	Facet   Facet
	Nodes   int
	Edges   int
	Density float64
	MaxDeg  int
	MeanDeg float64
	Bytes   uint64
	Packets uint64
	Conns   uint64
}

// ComputeStats returns summary statistics of the graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Facet: g.Facet, Nodes: g.NumNodes(), Edges: g.NumEdges(), Density: g.Density()}
	t := g.TotalTraffic()
	s.Bytes, s.Packets, s.Conns = t.Bytes, t.Packets, t.Conns
	var sum int
	g.EachNode(func(n Node) {
		d := g.Degree(n)
		sum += d
		if d > s.MaxDeg {
			s.MaxDeg = d
		}
	})
	if s.Nodes > 0 {
		s.MeanDeg = float64(sum) / float64(s.Nodes)
	}
	return s
}
