package segment

import (
	"fmt"
	"math"
	"slices"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/radix"
	"cloudgraph/internal/topk"
)

// Assignment maps each node to its µsegment id. Ids are dense, starting at
// 0, in deterministic order of first appearance over sorted nodes.
type Assignment map[graph.Node]int

// Segments returns the member lists, indexed by segment id, members sorted.
func (a Assignment) Segments() [][]graph.Node {
	max := -1
	for _, c := range a {
		if c > max {
			max = c
		}
	}
	out := make([][]graph.Node, max+1)
	for n, c := range a {
		out[c] = append(out[c], n)
	}
	for _, seg := range out {
		slices.SortFunc(seg, graph.Node.Compare)
	}
	return out
}

// NumSegments returns the number of distinct segments.
func (a Assignment) NumSegments() int {
	seen := make(map[int]struct{})
	for _, c := range a {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// Strategy names an auto-segmentation algorithm, matching the paper's
// figures.
type Strategy string

const (
	// StrategyJaccardLouvain is the paper's own method (Figure 1):
	// Jaccard neighbor-overlap scores, Louvain on the scored clique.
	StrategyJaccardLouvain Strategy = "jaccard-louvain"
	// StrategyMinHashLouvain is the sketched variant addressing the
	// super-quadratic cost called out as an open issue.
	StrategyMinHashLouvain Strategy = "minhash-louvain"
	// StrategySimRank clusters plain SimRank scores (Figure 3a).
	StrategySimRank Strategy = "simrank"
	// StrategySimRankPP clusters SimRank++ scores (Figure 3b).
	StrategySimRankPP Strategy = "simrank++"
	// StrategyModularityConn is Louvain directly on the communication
	// graph weighted by connection counts (Figure 3c).
	StrategyModularityConn Strategy = "modularity-conn"
	// StrategyModularityBytes is Louvain weighted by bytes (Figure 3d).
	StrategyModularityBytes Strategy = "modularity-bytes"
)

// Strategies lists all implemented strategies in figure order.
func Strategies() []Strategy {
	return []Strategy{
		StrategyJaccardLouvain, StrategyMinHashLouvain,
		StrategySimRank, StrategySimRankPP,
		StrategyModularityConn, StrategyModularityBytes,
	}
}

// Options tunes segmentation.
type Options struct {
	// MinScore drops similarity-clique edges below this weight; keeps
	// the clique sparse. Default 0.02.
	MinScore float64
	// TopK keeps, for each node, only the edges to its TopK most similar
	// peers. The exact rule: rank the scored pairs by weight descending,
	// ties by the pair's lower node, then its higher node, in sorted node
	// order; a pair survives iff it is among the first TopK pairs of
	// either endpoint in that ranking, and the survivors reach Louvain in
	// that ranking's order. Without it, the mass of weak cross-role
	// similarities drowns the sharp within-role ones and Louvain finds
	// only coarse macro-structure. Default 6; negative disables the
	// filter. The modularity strategies cluster the communication graph
	// itself and ignore it.
	TopK int
	// Resolution is the Louvain resolution parameter gamma (default 1 =
	// classic modularity; >1 yields more, finer segments). The paper
	// leaves the ideal segmentation granularity as an open question, so
	// this is the knob an operator would tune per subscription.
	Resolution float64
	// MinHashK is the sketch width for StrategyMinHashLouvain.
	MinHashK int
	// SimRank carries SimRank/SimRank++ parameters.
	SimRank SimRankOptions
}

func (o *Options) defaults() {
	if o.MinScore <= 0 {
		o.MinScore = 0.02
	}
	if o.TopK == 0 {
		o.TopK = 6
	}
	if o.MinHashK <= 0 {
		o.MinHashK = MinHashSize
	}
}

// Run applies the named strategy to the graph and returns the segmentation.
func Run(s Strategy, g *graph.Graph, opts Options) (Assignment, error) {
	return RunView(s, g.Undirected(), opts)
}

// RunView is Run over a graph's undirected view, for callers that already
// hold it.
func RunView(s Strategy, u *graph.Undirected, opts Options) (Assignment, error) {
	opts.defaults()
	n := len(u.Nodes)
	if n == 0 {
		return Assignment{}, nil
	}
	var pairs []simPair
	switch s {
	case StrategyJaccardLouvain:
		if opts.TopK > 0 {
			pairs = jaccardTopK(neighborSets(u), opts.MinScore, opts.TopK)
		} else {
			pairs = jaccardClique(neighborSets(u), opts.MinScore)
		}
	case StrategyMinHashLouvain:
		pairs = topK(minhashClique(neighborSets(u), opts.MinHashK, opts.MinScore), n, opts.TopK)
	case StrategySimRank:
		scores := simRankScores(neighborSets(u), opts.SimRank)
		pairs = topK(scoresToPairs(scores, n, opts.MinScore), n, opts.TopK)
	case StrategySimRankPP:
		scores := simRankPPScores(u, neighborSets(u), opts.SimRank)
		pairs = topK(scoresToPairs(scores, n, opts.MinScore), n, opts.TopK)
	case StrategyModularityConn:
		pairs = commPairs(u, graph.Conns)
	case StrategyModularityBytes:
		pairs = commPairs(u, graph.Bytes)
	default:
		return nil, fmt.Errorf("segment: unknown strategy %q", s)
	}
	comm := louvain(newWGraph(n, pairs), 1e-9, opts.Resolution)
	return compact(u.Nodes, comm), nil
}

// rank is the kNN ranking of scored pairs: weight descending, then (a, b)
// ascending. It is total over distinct pairs.
func rank(x, y simPair) int {
	switch {
	case x.w > y.w:
		return -1
	case x.w < y.w:
		return 1
	case x.a != y.a:
		return x.a - y.a
	}
	return x.b - y.b
}

// topK sparsifies a similarity clique over n nodes to a mutual-or kNN
// graph: a pair survives iff it is among the k first pairs of either
// endpoint under rank, and the survivors come back in rank order. k <= 0
// returns pairs unfiltered. Pairs must have a < b.
func topK(pairs []simPair, n, k int) []simPair {
	if k <= 0 {
		return pairs
	}
	sel := newKNN(n, k)
	for _, p := range pairs {
		sel.offer(p)
	}
	return sel.pairs()
}

// knn selects topK's survivors without ranking every pair. Walking all
// pairs in rank order and keeping one while either endpoint has kept fewer
// than k keeps exactly the union of every node's k first pairs: a pair
// whose endpoint is still below k has every earlier pair of that endpoint
// kept, so it is among that endpoint's first k. So each node keeps a k-slot
// heap of the pairs offered to it, and only the ≤ n·k heap contents are
// sorted at the end. Cost: O(P log k) for P offered pairs plus
// O(nk log nk), against O(P log P) for a sort of every pair.
type knn struct {
	k    int
	rows [][]simPair // node v's heap, capacity k
}

// newKNN returns a selector over n nodes. A node has at most n-1 pairs, so
// k is capped at n.
func newKNN(n, k int) *knn {
	k = min(k, n)
	slots := make([]simPair, n*k)
	rows := make([][]simPair, n)
	for v := range rows {
		rows[v] = slots[v*k : v*k : v*k+k]
	}
	return &knn{k: k, rows: rows}
}

// offer hands one scored pair to both endpoints' heaps. Order of offers
// does not matter: rank is total, so each heap ends with its node's k
// first pairs whatever order they arrive in. A pair that does not beat a
// full heap's root is turned away here, before the call: most offers are.
func (s *knn) offer(p simPair) {
	if h := s.rows[p.a]; len(h) < s.k || ahead(p, h[0]) {
		s.rows[p.a] = topk.Offer(h, s.k, p, rank)
	}
	if h := s.rows[p.b]; len(h) < s.k || ahead(p, h[0]) {
		s.rows[p.b] = topk.Offer(h, s.k, p, rank)
	}
}

// ahead is rank(x, y) < 0, small enough to inline.
func ahead(x, y simPair) bool {
	return x.w > y.w || (x.w == y.w && (x.a < y.a || (x.a == y.a && x.b < y.b)))
}

// pairs returns the union of every node's kept pairs, in rank order. A
// pair kept by both endpoints is taken from its lower endpoint's heap
// only. The rank order is a radix sort by (a, b), then stably by weight
// descending: weights are positive, so their bits order as they do, and
// ^bits orders them descending.
func (s *knn) pairs() []simPair {
	out := make([]simPair, 0, len(s.rows)*s.k)
	for v, row := range s.rows {
		for _, p := range row {
			if p.a == v || !slices.Contains(s.rows[p.a], p) {
				out = append(out, p)
			}
		}
	}
	var sorter radix.Sorter[simPair]
	sorter.Sort(out, func(p simPair) uint64 { return uint64(p.a)<<32 | uint64(p.b) })
	sorter.Sort(out, func(p simPair) uint64 { return ^math.Float64bits(p.w) })
	return out
}

// commPairs converts the communication graph itself into weighted pairs —
// the modularity-based baselines cluster who-talks-to-whom directly, which
// is exactly why they group clients with servers instead of role peers
// ("nodes with the same role such as the front-end VMs may never talk to
// each other", §2.1).
func commPairs(u *graph.Undirected, m graph.Metric) []simPair {
	pairs := make([]simPair, 0, len(u.Nbr)/2+1)
	for a := range u.Nodes {
		nbr, pair := u.Row(int32(a))
		for k, b := range nbr {
			if w := float64(pair[k].Get(m)); int(b) >= a && w > 0 {
				pairs = append(pairs, simPair{a: a, b: int(b), w: w})
			}
		}
	}
	return pairs
}

// compact converts a dense community slice into an Assignment with ids
// renumbered by first appearance over the sorted node order.
func compact(nodes []graph.Node, comm []int) Assignment {
	relabel := make(map[int]int)
	out := make(Assignment, len(nodes))
	for i, n := range nodes {
		c := comm[i]
		id, ok := relabel[c]
		if !ok {
			id = len(relabel)
			relabel[c] = id
		}
		out[n] = id
	}
	return out
}
