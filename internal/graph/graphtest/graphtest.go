// Package graphtest generates seeded random communication graphs in the
// shapes the analysis kernels treat differently, for differential tests
// that drive a kernel and its naive reference over the same input.
package graphtest

import (
	"math/rand"
	"net/netip"

	"cloudgraph/internal/graph"
)

// Case is one generated graph.
type Case struct {
	Name string
	G    *graph.Graph
}

// Node returns the i-th node of the shared address pool; every case draws
// its nodes from it, so two cases overlap and can be diffed.
func Node(i int) graph.Node {
	return graph.IPNode(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}))
}

// Cases returns one map-form graph per shape for the seed: sparse, dense, stars,
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
						b.g.AddEdge(Node(i), Node(j), graph.Counters{Bytes: 100, Packets: 1, Conns: 1})
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
		b := &builder{rng: rng, g: graph.New(graph.FacetIP)}
		s.fill(b)
		b.oddities()
		out[i] = Case{Name: s.name, G: b.g}
	}
	return out
}

// FrozenCases returns Cases(seed) with every graph frozen: the CSR twins of
// the map-form set, index for index.
func FrozenCases(seed int64) []Case {
	cs := Cases(seed)
	for _, c := range cs {
		c.G.Freeze()
	}
	return cs
}

type builder struct {
	rng *rand.Rand
	g   *graph.Graph
}

// edge adds traffic between nodes i and j: usually both directions,
// sometimes one; bytes from a small set (0 included) so equal weights and
// zero-byte pairs are common.
func (b *builder) edge(i, j int) {
	weights := []uint64{0, 100, 100, 200, 5000, uint64(b.rng.Intn(1_000_000))}
	c := func() graph.Counters {
		return graph.Counters{Bytes: weights[b.rng.Intn(len(weights))], Packets: uint64(1 + b.rng.Intn(9)), Conns: 1}
	}
	b.g.AddEdge(Node(i), Node(j), c())
	if b.rng.Intn(3) > 0 {
		b.g.AddEdge(Node(j), Node(i), c())
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
	b.g.AddNode(Node(200 + b.rng.Intn(8)))
	b.g.AddNode(Node(300))
	self := Node(b.rng.Intn(10))
	b.g.AddEdge(self, self, graph.Counters{Bytes: 700, Packets: 2, Conns: 1})
	b.g.AddEdge(Node(250), Node(b.rng.Intn(10)), graph.Counters{Packets: 1, Conns: 1})
}
