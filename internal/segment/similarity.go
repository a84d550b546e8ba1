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
	"math/bits"
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
// neighbor with i, in discovery order, and inter[j] is |N(i)∩N(j)| for
// each of them. row may reorder hits but not retain either slice. Each row
// keeps a cursor to its first id above i, which only moves forward as i
// grows, so ids at or below i are skipped, not tested: the cost is
// Σ deg·(deg−1)/2 plus Σ deg.
func jaccardRows(sets [][]int32, row func(i int, hits, inter []int32)) {
	inter := make([]int32, len(sets))
	next := make([]int32, len(sets)) // next[m]: sets[m]'s first index with id > i
	var hits []int32
	for i := range sets {
		for _, m := range sets[i] {
			nbr, k := sets[m], next[m]
			for int(k) < len(nbr) && int(nbr[k]) <= i {
				k++
			}
			next[m] = k
			for _, j := range nbr[k:] {
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

// jaccardBits counts the same intersections as jaccardRows by bitset and
// calls row the same way, hits ascending: each row becomes ⌈n/64⌉ words
// (n·⌈n/64⌉·8 bytes in all), and every pair i < j ANDs and popcounts its
// two rows. The cost is n(n−1)/2·⌈n/64⌉ word operations whatever the
// degrees.
func jaccardBits(sets [][]int32, row func(i int, hits, inter []int32)) {
	n := len(sets)
	w := (n + 63) / 64
	rows := make([]uint64, n*w)
	for i, s := range sets {
		r := rows[i*w : i*w+w]
		for _, m := range s {
			r[m>>6] |= 1 << (m & 63)
		}
	}
	inter := make([]int32, n)
	hits := make([]int32, n)
	for i := 0; i < n; i++ {
		h := 0
		if len(sets[i]) > 0 {
			ri := rows[i*w : i*w+w]
			for j := i + 1; j < n; j++ {
				rj := rows[j*w : j*w+w]
				rj = rj[:len(ri)] // lets the compiler drop rj's bounds checks
				c := 0
				for k, x := range ri {
					c += bits.OnesCount64(x & rj[k])
				}
				// Written for every j, kept only when c > 0: the row
				// reads inter only at hits.
				inter[j], hits[h] = int32(c), int32(j)
				if c > 0 {
					h++
				}
			}
		}
		row(i, hits[:h], inter)
	}
}

// bitsCheaper reports whether jaccardBits costs fewer word operations than
// jaccardRows on sets: n(n−1)/2·⌈n/64⌉ against Σ deg·(deg−1)/2, both known
// from the window's own counts before either runs. Both kernels count the
// same intersections, so the choice changes cost, never a score.
func bitsCheaper(sets [][]int32) bool {
	n := len(sets)
	walk := 0
	for _, s := range sets {
		walk += len(s) * (len(s) - 1)
	}
	return n*(n-1)*((n+63)/64) < walk
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
// neither the full pair slice nor the per-node sort of hits is built. The
// intersections come from whichever kernel bitsCheaper picks.
func jaccardTopK(sets [][]int32, minScore float64, k int) []simPair {
	return jaccardTopKBy(sets, minScore, k, bitsCheaper(sets))
}

// jaccardTopKBy is jaccardTopK with the counting kernel chosen by the
// caller: jaccardBits when useBits is set, jaccardRows otherwise. The
// selector's result does not depend on the order pairs are offered in, so
// the two agree exactly.
func jaccardTopKBy(sets [][]int32, minScore float64, k int, useBits bool) []simPair {
	sel := newKNN(len(sets), k)
	counts := jaccardRows
	if useBits {
		counts = jaccardBits
	}
	counts(sets, func(i int, hits, inter []int32) {
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
