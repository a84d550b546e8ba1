package segment

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// naiveTopK is topK as it was before the per-node selector: every pair
// sorted by rank, then kept greedily while either endpoint has kept fewer
// than k. Kept as the reference the selector is tested against. It sorts
// pairs in place.
func naiveTopK(pairs []simPair, n, k int) []simPair {
	slices.SortFunc(pairs, func(x, y simPair) int {
		switch {
		case x.w > y.w:
			return -1
		case x.w < y.w:
			return 1
		case x.a != y.a:
			return x.a - y.a
		}
		return x.b - y.b
	})
	deg := make([]int, n)
	out := make([]simPair, 0, n*k)
	for _, p := range pairs {
		if deg[p.a] < k || deg[p.b] < k {
			out = append(out, p)
			deg[p.a]++
			deg[p.b]++
		}
	}
	return out
}

// checkTopK asserts the selector, fed the pairs in the given order, returns
// exactly what the global sort does.
func checkTopK(t *testing.T, label string, pairs []simPair, n, k int) {
	t.Helper()
	want := naiveTopK(slices.Clone(pairs), n, k)
	if got := topK(slices.Clone(pairs), n, k); !slices.Equal(got, want) {
		t.Fatalf("%s k=%d: selector diverges from the global sort\n got: %v\nwant: %v", label, k, got, want)
	}
}

// TestTopKMatchesNaive drives the selector and the global-sort reference
// over the Jaccard cliques of every generated shape, and checks the fused
// Jaccard path against
// naiveTopK(jaccardClique(…)): same pairs, same order, for k from 1 to
// past the node count.
func TestTopKMatchesNaive(t *testing.T) {
	kept := 0
	for seed := int64(1); seed <= 12; seed++ {
		for _, c := range graphtest.Cases(seed) {
			sets := neighborSets(c.G.Undirected())
			n := len(sets)
			for _, minScore := range []float64{1e-9, 0.02, 0.3} {
				clique := jaccardClique(sets, minScore)
				for _, k := range []int{1, 2, 6, n, n + 5} {
					label := fmt.Sprintf("seed %d %s minScore %g", seed, c.Name, minScore)
					checkTopK(t, label, clique, n, k)
					// Offer order must not matter.
					rev := slices.Clone(clique)
					slices.Reverse(rev)
					checkTopK(t, label+" reversed", rev, n, k)
					want := naiveTopK(slices.Clone(clique), n, k)
					if got := jaccardTopK(sets, minScore, k); !slices.Equal(got, want) {
						t.Fatalf("%s k=%d: fused Jaccard path diverges\n got: %v\nwant: %v", label, k, got, want)
					}
					kept += len(want)
				}
			}
		}
	}
	if kept < 1000 {
		t.Fatalf("only %d kept pairs across all cases", kept)
	}
}

// TestTopKMatchesNaiveOnTies feeds the selector seeded pair sets whose
// weights are drawn from a few Jaccard fractions (1/3 and 2/6 are the same
// float), so nearly every comparison is decided by the (a, b) tie-break.
func TestTopKMatchesNaiveOnTies(t *testing.T) {
	fracs := []float64{1.0 / 2, 1.0 / 3, 2.0 / 6, 1.0 / 4, 3.0 / 12, 1}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		var pairs []simPair
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Intn(3) > 0 {
					pairs = append(pairs, simPair{a: a, b: b, w: fracs[rng.Intn(len(fracs))]})
				}
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, k := range []int{1, 2, 6, n} {
			checkTopK(t, fmt.Sprintf("seed %d n %d", seed, n), pairs, n, k)
		}
	}
}

// TestJaccardCliqueMatchesNaive drives the kernel and the reference over
// every generated shape: same pairs, same scores, same order — what topK
// and Louvain consume.
func TestJaccardCliqueMatchesNaive(t *testing.T) {
	scored := 0
	for seed := int64(1); seed <= 12; seed++ {
		for _, c := range graphtest.Cases(seed) {
			sets := neighborSets(c.G.Undirected())
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

// Jaccard returns |a∩b| / |a∪b| for sorted id slices. Two empty sets have
// similarity 0 (an isolated pair tells us nothing about shared role).
func Jaccard(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := common(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// modularity computes Newman modularity Q of an assignment on g.
func modularity(g *wgraph, comm []int) float64 {
	m := g.totalWeight()
	if m == 0 {
		return 0
	}
	nc := 0
	for _, c := range comm {
		if c+1 > nc {
			nc = c + 1
		}
	}
	in := make([]float64, nc)  // intra-community weight
	tot := make([]float64, nc) // community strength
	for i := 0; i < g.n; i++ {
		ci := comm[i]
		tot[ci] += g.strength(i)
		in[ci] += 2 * g.self[i]
		for _, e := range g.adj[i] {
			if comm[e.to] == ci {
				in[ci] += e.w
			}
		}
	}
	var q float64
	for c := 0; c < nc; c++ {
		q += in[c]/(2*m) - (tot[c]/(2*m))*(tot[c]/(2*m))
	}
	return q
}
