package graph

import "slices"

// CollapseOptions configures heavy-hitter collapsing.
type CollapseOptions struct {
	// Threshold is the minimum share (of total bytes, packets or
	// connections — any one suffices) a node must contribute to stay
	// distinct. The paper uses 0.1% (0.001).
	Threshold float64
	// Keep, when non-nil, marks nodes that are never collapsed regardless
	// of traffic share — typically the monitored VMs of the subscription.
	Keep func(Node) bool
}

// DefaultCollapseThreshold is the paper's 0.1% rule (§3.2).
const DefaultCollapseThreshold = 0.001

// Collapse returns a new graph in which every node below the traffic-share
// threshold is merged into the single Collapsed node. This is the paper's
// mitigation for the many-remote-IPs problem: "remote IPs and ephemeral
// ports that do not individually account for a sizable share of traffic are
// collapsed together" (§3.2). Edge time series are not preserved on the
// collapsed graph.
func (g *Graph) Collapse(opts CollapseOptions) *Graph {
	if opts.Threshold <= 0 {
		opts.Threshold = DefaultCollapseThreshold
	}
	fz, total := g.fz, g.TotalTraffic()
	keep := make([]bool, len(fz.nodes))
	for i, n := range fz.nodes {
		keep[i] = g.significant(n, total, opts)
	}
	mapped := func(i int32) Node {
		if keep[i] {
			return fz.nodes[i]
		}
		return Collapsed
	}
	// Traffic entirely inside the collapse bucket (or a self-loop)
	// disappears, like the paper's aggregate node. A node stays if it is
	// kept, isolated or not, or if it is a collapsed end of an edge that
	// stays.
	used := slices.Clone(keep)
	var keys []uint64
	var edges []Edge
	for i := range fz.nodes {
		for k := fz.rowOff[i]; k < fz.rowOff[i+1]; k++ {
			j := fz.cols[k]
			if mapped(int32(i)) == mapped(j) {
				continue
			}
			keys = append(keys, uint64(i)<<32|uint64(j))
			edges = append(edges, Edge{Counters: fz.edges[k].Counters})
			used[i], used[j] = true, true
		}
	}
	// Renumber onto the nodes that stay, each under its mapped node: the
	// renumbering is monotone, so the keys stay ascending and distinct, and
	// FromIndex merges the repeated Collapsed entries and sums the edges
	// that then coincide.
	id := make([]uint64, len(fz.nodes))
	var nodes []Node
	for i := range fz.nodes {
		if used[i] {
			id[i] = uint64(len(nodes))
			nodes = append(nodes, mapped(int32(i)))
		}
	}
	for e, k := range keys {
		keys[e] = id[k>>32]<<32 | id[uint32(k)]
	}
	out, _ := FromIndex(g.Facet, nodes, keys, edges)
	out.Start, out.End = g.Start, g.End
	return out
}

// significant reports whether n exceeds the share threshold on any metric,
// or is protected by Keep.
func (g *Graph) significant(n Node, total Counters, opts CollapseOptions) bool {
	if opts.Keep != nil && opts.Keep(n) {
		return true
	}
	// Each unit of traffic involves two endpoints, so a node's share is
	// computed against the total (node strength sums to 2x total).
	check := func(strength, tot uint64) bool {
		if tot == 0 {
			return false
		}
		return float64(strength) >= opts.Threshold*float64(2*tot)
	}
	return check(g.NodeStrength(n, Bytes), total.Bytes) ||
		check(g.NodeStrength(n, Packets), total.Packets) ||
		check(g.NodeStrength(n, Conns), total.Conns)
}
