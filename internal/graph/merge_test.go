package graph_test

import (
	"reflect"
	"testing"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

// TestMergeFrozenMatchesMap merges graphtest's shapes pairwise — isolated
// nodes, self-loops, one-way and zero-byte edges included — as two CSR
// graphs and as two map-form ones; the merge-join must give the same nodes,
// pair count, edges and view, and stay frozen.
func TestMergeFrozenMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		into, from := graphtest.Cases(seed), graphtest.Cases(seed+100)
		fzInto, fzFrom := graphtest.FrozenCases(seed), graphtest.FrozenCases(seed+100)
		for i := range into {
			for j := range from {
				want := graph.New(graph.FacetIP)
				want.Merge(into[i].G)
				want.Merge(from[j].G)
				got := graph.New(graph.FacetIP)
				got.Freeze()
				got.Merge(fzInto[i].G)
				got.Merge(fzFrom[j].G)
				if !got.Frozen() {
					t.Fatalf("seed %d %s+%s: merge of frozen graphs thawed", seed, into[i].Name, from[j].Name)
				}
				if got.NumEdges() != want.NumEdges() || got.NumDirectedEdges() != want.NumDirectedEdges() ||
					!reflect.DeepEqual(got.Nodes(), want.Nodes()) ||
					!reflect.DeepEqual(got.UndirectedEdges(), want.UndirectedEdges()) ||
					!reflect.DeepEqual(got.Undirected(), want.Undirected()) {
					t.Fatalf("seed %d %s+%s: frozen merge differs from map merge", seed, into[i].Name, from[j].Name)
				}
			}
		}
	}
}
