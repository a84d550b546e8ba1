package segment

import (
	"fmt"
	"slices"
	"sort"

	"cloudgraph/internal/graph"
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
		sort.Slice(seg, func(i, j int) bool { return seg[i].Less(seg[j]) })
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
	// peers (an edge survives if either endpoint ranks it). Without it,
	// the mass of weak cross-role similarities drowns the sharp
	// within-role ones and Louvain finds only coarse macro-structure.
	// Default 6; negative disables the filter.
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
	opts.defaults()
	u := g.Undirected()
	n := len(u.Nodes)
	if n == 0 {
		return Assignment{}, nil
	}
	var pairs []simPair
	similarity := true
	switch s {
	case StrategyJaccardLouvain:
		pairs = jaccardClique(neighborSets(u), opts.MinScore)
	case StrategyMinHashLouvain:
		pairs = minhashClique(neighborSets(u), opts.MinHashK, opts.MinScore)
	case StrategySimRank:
		scores := simRankScores(neighborSets(u), opts.SimRank)
		pairs = scoresToPairs(scores, n, opts.MinScore)
	case StrategySimRankPP:
		scores := simRankPPScores(u, neighborSets(u), opts.SimRank)
		pairs = scoresToPairs(scores, n, opts.MinScore)
	case StrategyModularityConn:
		pairs = commPairs(u, graph.Conns)
		similarity = false
	case StrategyModularityBytes:
		pairs = commPairs(u, graph.Bytes)
		similarity = false
	default:
		return nil, fmt.Errorf("segment: unknown strategy %q", s)
	}
	if similarity && opts.TopK > 0 {
		pairs = topK(pairs, n, opts.TopK)
	}
	comm := louvain(newWGraph(n, pairs), 1e-9, opts.Resolution)
	return compact(u.Nodes, comm), nil
}

// topK sparsifies a similarity clique to a mutual-or kNN graph: an edge
// survives if it is among either endpoint's k strongest.
func topK(pairs []simPair, n, k int) []simPair {
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

// Restrict returns the assignment limited to nodes for which keep is true
// (e.g. monitored VMs only), with ids re-compacted.
func (a Assignment) Restrict(keep func(graph.Node) bool) Assignment {
	nodes := make([]graph.Node, 0, len(a))
	for n := range a {
		if keep(n) {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Less(nodes[j]) })
	relabel := make(map[int]int)
	out := make(Assignment, len(nodes))
	for _, n := range nodes {
		c := a[n]
		id, ok := relabel[c]
		if !ok {
			id = len(relabel)
			relabel[c] = id
		}
		out[n] = id
	}
	return out
}
