// Package segment implements the paper's micro-segmentation analyses
// (§2.1): inferring the roles of cloud resources from their communication
// patterns. The paper's own method scores node pairs by the Jaccard overlap
// of their neighbor sets and clusters the scored clique with Louvain
// (Figure 1); the alternatives it compares against — SimRank, SimRank++,
// and modularity clustering weighted by connections or bytes — are
// implemented here too (Figure 3), along with quality metrics that score
// any segmentation against the generator's ground-truth roles.
package segment

import (
	"slices"

	"cloudgraph/internal/graph"
)

// neighborSets returns each node's undirected neighbor ids, ascending: the
// rows of the graph's index-space view, shared, not copied.
func neighborSets(u *graph.Undirected) [][]int32 {
	sets := make([][]int32, len(u.Nodes))
	for i := range sets {
		sets[i], _ = u.Row(int32(i))
	}
	return sets
}

// common returns |a∩b| for sorted id slices.
func common(a, b []int32) int {
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return inter
}

// simPair is one scored node pair of the similarity clique.
type simPair struct {
	a, b int
	w    float64
}

// jaccardRows is the paper's "score each pair of nodes based on the
// overlap in their neighboring sets" step without its all-pairs cost: only
// pairs sharing a neighbor score above zero, so for each node i the
// intersections |N(i)∩N(j)| are counted in a dense scratch array by walking
// the rows of i's neighbors — sets must be symmetric, as a view's rows are.
// It then calls row(i, hits, inter): hits holds every j > i sharing a
// neighbor with i, in discovery order, and inter[j] is |N(i)∩N(j)|. row may
// reorder hits but not retain either slice. The cost is Σ deg².
func jaccardRows(sets [][]int32, row func(i int, hits, inter []int32)) {
	inter := make([]int32, len(sets))
	var hits []int32
	for i := range sets {
		for _, m := range sets[i] {
			for _, j := range sets[m] {
				if int(j) <= i {
					continue
				}
				if inter[j] == 0 {
					hits = append(hits, j)
				}
				inter[j]++
			}
		}
		row(i, hits, inter)
		for _, j := range hits {
			inter[j] = 0
		}
		hits = hits[:0]
	}
}

// jaccardOf is the Jaccard score of nodes i and j sharing c neighbors.
func jaccardOf(sets [][]int32, i int, j int32, c int32) float64 {
	return float64(c) / float64(len(sets[i])+len(sets[j])-int(c))
}

// jaccardClique returns every node pair whose neighbor-set Jaccard overlap
// is at or above minScore (which must be positive), ascending by (a, b).
// Each node's two-hop hits are sorted to give that order.
func jaccardClique(sets [][]int32, minScore float64) []simPair {
	var pairs []simPair
	jaccardRows(sets, func(i int, hits, inter []int32) {
		slices.Sort(hits)
		for _, j := range hits {
			if w := jaccardOf(sets, i, j, inter[j]); w >= minScore {
				pairs = append(pairs, simPair{a: i, b: int(j), w: w})
			}
		}
	})
	return pairs
}

// jaccardTopK is topK(jaccardClique(sets, minScore), len(sets), k) without
// the clique: every scored pair goes straight to the kNN selector, so
// neither the full pair slice nor the per-node sort of hits is built.
func jaccardTopK(sets [][]int32, minScore float64, k int) []simPair {
	sel := newKNN(len(sets), k)
	jaccardRows(sets, func(i int, hits, inter []int32) {
		for _, j := range hits {
			if w := jaccardOf(sets, i, j, inter[j]); w >= minScore {
				sel.offer(simPair{a: i, b: int(j), w: w})
			}
		}
	})
	return sel.pairs()
}

// MinHashSize is the default sketch width for approximate Jaccard.
const MinHashSize = 64

// minhashSig computes a k-permutation MinHash signature of a set of ids.
// Estimated Jaccard = fraction of colliding signature slots; this is the
// sketching mitigation (à la SuperMinHash) for the quadratic scoring cost.
func minhashSig(set []int32, k int) []uint64 {
	sig := make([]uint64, k)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, v := range set {
		x := uint64(v) + 1
		for i := 0; i < k; i++ {
			h := splitmix64(x + uint64(i)*0x9e3779b97f4a7c15)
			if h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

// splitmix64 is a strong 64-bit mixer, deterministic across runs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// minhashEstimate returns the estimated Jaccard of two signatures.
func minhashEstimate(a, b []uint64) float64 {
	match := 0
	for i := range a {
		if a[i] == b[i] && a[i] != ^uint64(0) {
			match++
		}
	}
	return float64(match) / float64(len(a))
}

// minhashClique is jaccardClique with sketched scores.
func minhashClique(sets [][]int32, k int, minScore float64) []simPair {
	n := len(sets)
	sigs := make([][]uint64, n)
	for i, s := range sets {
		sigs[i] = minhashSig(s, k)
	}
	var pairs []simPair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := minhashEstimate(sigs[i], sigs[j]); w >= minScore {
				pairs = append(pairs, simPair{a: i, b: j, w: w})
			}
		}
	}
	return pairs
}
