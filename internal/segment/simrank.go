package segment

import (
	"math"

	"cloudgraph/internal/graph"
)

// SimRank (Jeh & Widom) scores structural similarity recursively: two nodes
// are similar when their neighbors are similar. The paper notes that,
// uniquely, such recursive techniques can learn roles that are not obvious
// from a node's own communication — at higher cost than Jaccard scoring
// (§2.1).

// SimRankOptions configures SimRank and SimRank++.
type SimRankOptions struct {
	// C is the decay factor (0, 1); 0.8 is the classic default.
	C float64
	// Iterations bounds the fixed-point iteration; 5 is usually enough.
	Iterations int
	// Metric selects the edge weights used by SimRank++.
	Metric graph.Metric
}

func (o *SimRankOptions) defaults() {
	if o.C <= 0 || o.C >= 1 {
		o.C = 0.8
	}
	if o.Iterations <= 0 {
		o.Iterations = 5
	}
}

// simRankScores runs plain SimRank over undirected neighbor sets and
// returns the dense similarity matrix (row-major n×n).
func simRankScores(sets [][]int32, opts SimRankOptions) []float64 {
	opts.defaults()
	n := len(sets)
	cur := make([]float64, n*n)
	next := make([]float64, n*n)
	for i := 0; i < n; i++ {
		cur[i*n+i] = 1
	}
	for it := 0; it < opts.Iterations; it++ {
		for i := 0; i < n; i++ {
			next[i*n+i] = 1
			for j := i + 1; j < n; j++ {
				ni, nj := sets[i], sets[j]
				var s float64
				if len(ni) > 0 && len(nj) > 0 {
					var sum float64
					for _, a := range ni {
						row := cur[int(a)*n:]
						for _, b := range nj {
							sum += row[b]
						}
					}
					s = opts.C * sum / float64(len(ni)*len(nj))
				}
				next[i*n+j] = s
				next[j*n+i] = s
			}
		}
		cur, next = next, cur
	}
	return cur
}

// simRankPPScores runs SimRank++ (Antonellis et al.): SimRank extended with
// an evidence factor — pairs sharing more neighbors are trusted more — and
// edge-weight-aware propagation, so heavy conversations influence
// similarity more than trickles.
func simRankPPScores(u *graph.Undirected, sets [][]int32, opts SimRankOptions) []float64 {
	opts.defaults()
	n := len(sets)

	// Normalized weights, stored as a slice parallel to sets[i] so the
	// O(n²·d²) inner loop stays free of map lookups:
	// wlist[i][k] = traffic(i, sets[i][k]) / Σ traffic(i, ·).
	wlist := make([][]float64, n)
	for i := range sets {
		ws := make([]float64, len(sets[i]))
		var total float64
		_, pair := u.Row(int32(i))
		for k, c := range pair {
			w := float64(c.Get(opts.Metric))
			ws[k] = w
			total += w
		}
		if total > 0 {
			for k := range ws {
				ws[k] /= total
			}
		} else if len(ws) > 0 {
			uniform := 1 / float64(len(ws))
			for k := range ws {
				ws[k] = uniform
			}
		}
		wlist[i] = ws
	}

	cur := make([]float64, n*n)
	next := make([]float64, n*n)
	for i := 0; i < n; i++ {
		cur[i*n+i] = 1
	}
	for it := 0; it < opts.Iterations; it++ {
		for i := 0; i < n; i++ {
			next[i*n+i] = 1
			ni, wi := sets[i], wlist[i]
			for j := i + 1; j < n; j++ {
				nj, wj := sets[j], wlist[j]
				var s float64
				if len(ni) > 0 && len(nj) > 0 {
					var sum float64
					for ai, a := range ni {
						wa := wi[ai]
						if wa == 0 {
							continue
						}
						row := cur[int(a)*n:]
						for bi, b := range nj {
							sum += wa * wj[bi] * row[b]
						}
					}
					s = opts.C * sum * evidence(sets[i], sets[j])
				}
				next[i*n+j] = s
				next[j*n+i] = s
			}
		}
		cur, next = next, cur
	}
	return cur
}

// evidence returns 1 − 2^{−|common neighbors|}, the SimRank++ confidence
// factor: more shared witnesses, more trust.
func evidence(a, b []int32) float64 {
	c := common(a, b)
	if c == 0 {
		return 0
	}
	return 1 - math.Pow(2, -float64(c))
}

// scoresToPairs converts a dense similarity matrix into clique pairs above
// minScore, for clustering.
func scoresToPairs(scores []float64, n int, minScore float64) []simPair {
	var pairs []simPair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := scores[i*n+j]; w >= minScore {
				pairs = append(pairs, simPair{a: i, b: j, w: w})
			}
		}
	}
	return pairs
}
