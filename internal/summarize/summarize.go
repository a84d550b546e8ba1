// Package summarize implements the succinct-summary analyses of §2.2:
// CCDFs of traffic concentration (Figure 6), mining the canonical patterns
// visible in the adjacency matrices of Figure 4 (chatty cliques, hub and
// spoke), executive summaries ("80% of the bytes in your network are doing
// X"), and the hour-over-hour anomaly scoring that Figure 5's timelapse
// motivates.
package summarize

import (
	"fmt"
	"slices"
	"sort"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/radix"
)

// CCDFPoint is one point of Figure 6: after sorting nodes by traffic
// descending, the top Fraction of nodes carry 1-CCDF of the bytes; CCDF is
// the share of total traffic NOT covered by the top Fraction of nodes.
type CCDFPoint struct {
	Fraction float64 // fraction of nodes (x axis)
	CCDF     float64 // remaining traffic share (y axis, log scale in paper)
}

// CCDF computes the traffic-concentration curve for metric m: "a few nodes
// account for most of the traffic". The curve is evaluated after each node
// in descending-traffic order. A graph whose nodes exchanged nothing under
// m has no concentration to report: its curve is flat at 0.
func CCDF(g *graph.Graph, m graph.Metric) []CCDFPoint {
	return ccdf(g.Undirected(), m)
}

func ccdf(u *graph.Undirected, m graph.Metric) []CCDFPoint {
	n := len(u.Nodes)
	if n == 0 {
		return nil
	}
	strengths := make([]uint64, n)
	var total float64
	for i := range strengths {
		_, pair := u.Row(int32(i))
		for _, c := range pair {
			strengths[i] += c.Get(m)
		}
		total += float64(strengths[i])
	}
	slices.Sort(strengths)
	slices.Reverse(strengths)
	out := make([]CCDFPoint, n)
	var cum float64
	for i, s := range strengths {
		out[i].Fraction = float64(i+1) / float64(n)
		cum += float64(s)
		if total > 0 {
			out[i].CCDF = max(0, 1-cum/total)
		}
	}
	return out
}

// FractionForShare returns the smallest fraction of nodes that carries at
// least the given share of traffic — the "where to invest more capacity"
// headline (e.g. 1% of nodes carry 90% of bytes).
func FractionForShare(points []CCDFPoint, share float64) float64 {
	for _, p := range points {
		if 1-p.CCDF >= share {
			return p.Fraction
		}
	}
	return 1
}

// Hub is a hub-and-spoke pattern: one node exchanging traffic with many
// others. Hubs are "likely to be control plane components such as job
// managers, k8s api servers, cloud stores or telemetry sinks".
type Hub struct {
	Node       graph.Node
	Degree     int
	ByteShare  float64 // of total graph bytes
	SpokeShare float64 // degree / (nodes-1)
}

// Hubs returns nodes whose degree covers at least minSpokeShare of the
// graph, sorted by degree descending.
func Hubs(g *graph.Graph, minSpokeShare float64) []Hub {
	return hubs(g.Undirected(), g.TotalTraffic().Bytes, minSpokeShare)
}

func hubs(u *graph.Undirected, totalBytes uint64, minSpokeShare float64) []Hub {
	n := len(u.Nodes)
	if n < 3 {
		return nil
	}
	var out []Hub
	for i, node := range u.Nodes {
		_, pair := u.Row(int32(i))
		deg := len(pair)
		spoke := float64(deg) / float64(n-1)
		if spoke < minSpokeShare {
			continue
		}
		h := Hub{Node: node, Degree: deg, SpokeShare: spoke}
		if totalBytes > 0 {
			// Share of all bytes the hub touches (a perfect hub
			// that is an endpoint of every edge scores 1).
			var strength uint64
			for _, c := range pair {
				strength += c.Bytes
			}
			h.ByteShare = float64(strength) / float64(totalBytes)
		}
		out = append(out, h)
	}
	// Nodes are visited in ascending order, so a stable sort on degree
	// leaves equal-degree hubs ordered by Node.Less.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Degree > out[j].Degree })
	return out
}

// Clique is a chatty-clique pattern: a set of nodes exchanging large
// amounts of data among each other.
type Clique struct {
	Members []graph.Node
	// InternalBytes is the traffic among members; Density is the filled
	// fraction of member pairs.
	InternalBytes uint64
	Density       float64
	// ByteShare is InternalBytes over the graph total.
	ByteShare float64
}

// maxCliqueSize bounds how far one seed grows.
const maxCliqueSize = 64

// ChattyCliques finds dense heavy subgraphs greedily: seeds are the
// heaviest edges; a seed grows by adding the node with the most bytes to
// the current members while pair density stays above minDensity. Cliques
// smaller than minSize or below minByteShare are dropped. The greedy
// approach mirrors how the banded blocks of Figure 4 pop out visually.
func ChattyCliques(g *graph.Graph, minSize int, minDensity, minByteShare float64) []Clique {
	return chattyCliques(g.Undirected(), g.TotalTraffic().Bytes, minSize, minDensity, minByteShare, new(cliqueScratch))
}

// cliqueScratch holds chattyCliques' seed buffers and per-node state
// between calls.
type cliqueScratch struct {
	seeds            []seed
	sorter           radix.Sorter[seed]
	nodes            []cliqueNode
	members, touched []int32
}

// cliqueNode is one node's state in the chatty-clique search. links is -1
// once the node is a member, of the growing seed or of a kept clique: out
// of reach of later growth either way.
type cliqueNode struct {
	toMembers uint64 // bytes it exchanges with the current members
	links     int32  // how many members those bytes reach
	at        int32  // its index in touched, while it is a candidate
}

// chattyCliques grows each seed incrementally in index space. Per
// candidate (a non-member with bytes to some member) it keeps toMembers,
// the bytes it exchanges with the current members, and links, how many
// members those bytes reach; adding a member updates both from that
// member's row alone, and the members' own filled-pair count and internal
// bytes are the running sums of the links/toMembers each member had when it
// joined. A seed therefore costs O(Σ deg(members) + steps·|touched|).
func chattyCliques(u *graph.Undirected, totalBytes uint64, minSize int, minDensity, minByteShare float64, sc *cliqueScratch) []Clique {
	if minSize < 3 {
		minSize = 3
	}
	if totalBytes == 0 {
		return nil
	}
	seeds := sc.seeds[:0]
	for a := int32(0); int(a) < len(u.Nodes); a++ {
		nbr, pair := u.Row(a)
		for k, b := range nbr {
			if b >= a {
				seeds = append(seeds, seed{a, b, pair[k].Bytes})
			}
		}
	}
	// Seeds are appended in (a, b) order, so a stable sort on bytes
	// descending is the (bytes desc, a, b) order: a radix sort on ^bytes.
	sc.seeds = seeds
	sc.sorter.Sort(seeds, func(s seed) uint64 { return ^s.bytes })

	if cap(sc.nodes) < len(u.Nodes) {
		sc.nodes = make([]cliqueNode, len(u.Nodes))
	}
	nodes := sc.nodes[:len(u.Nodes)]
	clear(nodes)
	// touched holds this seed's candidates: every non-member with bytes to
	// some member, candidate c at touched[nodes[c].at]. A candidate that
	// joins leaves it.
	members, touched := sc.members[:0], sc.touched[:0]
	var filled int      // member pairs with traffic
	var internal uint64 // bytes among members
	add := func(x int32) {
		nx := &nodes[x]
		if nx.links > 0 {
			last := touched[len(touched)-1]
			touched[nx.at], nodes[last].at = last, nx.at
			touched = touched[:len(touched)-1]
		}
		members = append(members, x)
		filled += int(nx.links)
		internal += nx.toMembers
		nx.links = -1
		nbr, pair := u.Row(x)
		for k, y := range nbr {
			b, ny := pair[k].Bytes, &nodes[y]
			if b == 0 || ny.links < 0 {
				continue
			}
			if ny.links == 0 {
				ny.at = int32(len(touched))
				touched = append(touched, y)
			}
			ny.toMembers += b
			ny.links++
		}
	}

	var out []Clique
	for _, s := range seeds {
		if nodes[s.a].links < 0 || nodes[s.b].links < 0 {
			continue
		}
		filled, internal = 0, 0
		add(s.a)
		if s.b != s.a {
			add(s.b)
		}
		for len(members) < maxCliqueSize {
			// The heaviest candidate that keeps the grown set dense; ties
			// go to the lesser node.
			best, bestBytes := int32(-1), uint64(0)
			grownPairs := float64(len(members) * (len(members) + 1) / 2)
			// The density test is monotone in a candidate's links, so it
			// holds from the fewest links that pass it, found with the
			// same float expression; no candidate has more links than
			// there are members.
			need := int32(sort.Search(len(members)+1, func(l int) bool {
				return !(float64(filled+l)/grownPairs < minDensity)
			}))
			for _, c := range touched {
				nc := &nodes[c]
				if nc.links < need {
					continue
				}
				if t := nc.toMembers; t > bestBytes || (t == bestBytes && c < best) {
					best, bestBytes = c, t
				}
			}
			if best < 0 {
				break
			}
			add(best)
		}
		kept := false
		if len(members) >= minSize {
			cl := Clique{
				InternalBytes: internal,
				Density:       float64(filled) / float64(len(members)*(len(members)-1)/2),
				ByteShare:     float64(internal) / float64(totalBytes),
			}
			if kept = cl.ByteShare >= minByteShare && cl.Density >= minDensity; kept {
				slices.Sort(members)
				cl.Members = make([]graph.Node, len(members))
				for i, m := range members {
					cl.Members[i] = u.Nodes[m]
				}
				out = append(out, cl)
			}
		}
		if !kept {
			// The members of a kept clique stay out of reach.
			for _, x := range members {
				nodes[x] = cliqueNode{}
			}
		}
		for _, x := range touched {
			nodes[x] = cliqueNode{}
		}
		members, touched = members[:0], touched[:0]
	}
	sc.members, sc.touched = members, touched
	sort.Slice(out, func(i, j int) bool { return out[i].InternalBytes > out[j].InternalBytes })
	return out
}

// seed is a chattyCliques seed: a pair and the bytes between them.
type seed struct {
	a, b  int32
	bytes uint64
}

// Summary is an executive summary of one graph window.
type Summary struct {
	Stats    graph.Stats
	Hubs     []Hub
	Cliques  []Clique
	CCDF     []CCDFPoint
	Headline string
}

// Summarize builds the full succinct summary of a graph.
func Summarize(g *graph.Graph) Summary { return new(Summarizer).View(g, g.Undirected()) }

// A Summarizer builds summaries window after window, keeping the
// chatty-clique search's buffers from one to the next. Not safe for
// concurrent use; the zero value is ready.
type Summarizer struct {
	cliques cliqueScratch
}

// View is Summarize for a caller that already holds u, g's undirected
// view.
func (sz *Summarizer) View(g *graph.Graph, u *graph.Undirected) Summary {
	s := Summary{Stats: g.ComputeStats()}
	s.Hubs = hubs(u, s.Stats.Bytes, 0.5)
	s.Cliques = chattyCliques(u, s.Stats.Bytes, 3, 0.5, 0.01, &sz.cliques)
	s.CCDF = ccdf(u, graph.Bytes)
	top10 := 1 - ccdfAt(s.CCDF, 0.1)
	var patternBytes float64
	for _, c := range s.Cliques {
		patternBytes += c.ByteShare
	}
	for _, h := range s.Hubs {
		patternBytes += h.ByteShare
	}
	if patternBytes > 1 {
		patternBytes = 1
	}
	s.Headline = fmt.Sprintf(
		"%d nodes, %d edges; top 10%% of nodes carry %.0f%% of bytes; %d hub(s) and %d chatty clique(s) explain %.0f%% of traffic",
		s.Stats.Nodes, s.Stats.Edges, 100*top10, len(s.Hubs), len(s.Cliques), 100*patternBytes)
	return s
}

// ccdfAt interpolates the CCDF at a node fraction.
func ccdfAt(points []CCDFPoint, frac float64) float64 {
	for _, p := range points {
		if p.Fraction >= frac {
			return p.CCDF
		}
	}
	if len(points) == 0 {
		return 0
	}
	return points[len(points)-1].CCDF
}
