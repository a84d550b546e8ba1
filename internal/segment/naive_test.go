package segment

import (
	"reflect"
	"testing"

	"cloudgraph/internal/graph/graphtest"
)

// naiveJaccardClique is jaccardClique as it was before the two-hop
// kernel: every node pair scored by a sorted-set merge. Kept as the
// reference the kernel is tested against.
func naiveJaccardClique(sets [][]int32, minScore float64) []simPair {
	n := len(sets)
	var pairs []simPair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := Jaccard(sets[i], sets[j]); w >= minScore {
				pairs = append(pairs, simPair{a: i, b: j, w: w})
			}
		}
	}
	return pairs
}

// TestJaccardCliqueMatchesNaive drives the kernel and the reference over
// every generated shape, on both graph representations: same pairs, same
// scores, same order — what topK and Louvain consume.
func TestJaccardCliqueMatchesNaive(t *testing.T) {
	scored := 0
	for seed := int64(1); seed <= 12; seed++ {
		asMap, asFrozen := graphtest.Cases(seed), graphtest.FrozenCases(seed)
		for i, c := range asMap {
			sets := neighborSets(c.G.Undirected())
			if !reflect.DeepEqual(sets, neighborSets(asFrozen[i].G.Undirected())) {
				t.Fatalf("seed %d %s: neighbor sets differ between representations", seed, c.Name)
			}
			for _, minScore := range []float64{1e-9, 0.02, 0.3, 1} {
				got, want := jaccardClique(sets, minScore), naiveJaccardClique(sets, minScore)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s minScore %g: kernel diverges from naive\n got: %v\nwant: %v", seed, c.Name, minScore, got, want)
				}
				scored += len(want)
			}
		}
	}
	if scored < 1000 {
		t.Fatalf("only %d scored pairs across all cases", scored)
	}
}
