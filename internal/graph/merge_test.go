package graph_test

import (
	"testing"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

// TestMergeFrozenMatchesMap merges graphtest's shapes pairwise — isolated
// nodes, self-loops, one-way and zero-byte edges included — in CSR and in
// their models' maps: the merge-join must hold the model's nodes, pairs
// and edges, and answer every accessor as the model does.
func TestMergeFrozenMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		into, from := graphtest.Cases(seed), graphtest.Cases(seed+100)
		for i := range into {
			for j := range from {
				want := graphtest.NewModel(graph.FacetIP)
				want.Merge(into[i].M)
				want.Merge(from[j].M)
				got := graph.New(graph.FacetIP)
				got.Merge(into[i].G)
				got.Merge(from[j].G)
				if err := checkAccessors(got, want); err != nil {
					t.Fatalf("seed %d %s+%s: %v", seed, into[i].Name, from[j].Name, err)
				}
			}
		}
	}
}
