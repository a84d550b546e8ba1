package graph

import "sort"

// frozen is the hypersparse CSR (compressed sparse row) form every Graph
// is held in. A window is written once and only read after that (the
// timeline and consumer-bus contract), so the form is assembled from
// tuples in one step and never mutated: nodes are one sorted slice whose
// index is the node id, out-edges are offset+column arrays with a parallel
// slab of per-edge counter blocks, and the in-direction is a CSC mirror
// that shares the slab. A Builder seals its window straight into this
// form, Merge merge-joins two of them, FromIndex assembles one from
// index-space tuples (a collapsed window, a v1 history record) and FromCSR
// adopts the arrays of a decoded v2 history record; every read accessor
// answers from the arrays.
//
// Layout, for n nodes and m directed edges:
//
//	nodes  [n]Node    sorted by Node.Less; index == node id
//	rowOff [n+1]int32 row i's out-edges live at [rowOff[i], rowOff[i+1])
//	cols   [m]int32   destination ids, ascending within each row
//	edges  [m]Edge    24-byte counter block per directed edge, pointer-free
//	inOff  [n+1]int32 column j's in-edges live at [inOff[j], inOff[j+1])
//	inSrc  [m]int32   source ids, ascending within each column
//	inEdge [m]int32   index into edges for the mirrored directed edge
type frozen struct {
	nodes  []Node
	rowOff []int32
	cols   []int32
	edges  []Edge
	inOff  []int32
	inSrc  []int32
	inEdge []int32
}

// CSR returns the graph's compressed-sparse-row arrays: nodes in Node.Less
// order (index == node id), node i's out-edges at [rowOff[i], rowOff[i+1])
// with destination ids cols[k], ascending within each row, and counter
// blocks edges[k]. They are the graph's own arrays, which the caller must
// not modify. It is the index-space entry point of the window codec.
func (g *Graph) CSR() (nodes []Node, rowOff, cols []int32, edges []Edge) {
	return g.fz.nodes, g.fz.rowOff, g.fz.cols, g.fz.edges
}

// FromCSR adopts arrays already in the CSR layout CSR returns — nodes
// strictly ascending by Node.Less, rowOff the n+1 row offsets from 0 to
// len(cols), each row's cols strictly ascending and below n, edges parallel
// to cols — and builds only the in-direction mirror. It is the window
// codec's decode entry point, whose canonical body is this layout; the
// caller guarantees every invariant.
func FromCSR(facet Facet, nodes []Node, rowOff, cols []int32, edges []Edge) *Graph {
	fz := &frozen{nodes: nodes, rowOff: rowOff, cols: cols, edges: edges}
	fz.mirror()
	return newGraph(facet, fz)
}

// FromIndex assembles a graph from an index form: nodes, and the
// directed edges keys[e] = src<<32|dst between positions in nodes, with
// counter blocks edges[e]. Edges may come in any order but must not repeat
// a key (FromIndex reports false if one does); nodes may come in any order
// and repeat, and equal nodes become one node whose coinciding edges sum.
// Nodes in strictly ascending Node.Less order with strictly ascending keys —
// the order the CSR form lays them out in — are adopted without sorting.
// FromIndex takes ownership of all three slices; the caller guarantees
// every key indexes into nodes.
func FromIndex(facet Facet, nodes []Node, keys []uint64, edges []Edge) (*Graph, bool) {
	if !ascending(keys) {
		keys, edges = sortEdges(len(nodes), keys, edges)
		if !ascending(keys) {
			return nil, false
		}
	}
	for i := 1; i < len(nodes); i++ {
		if !nodes[i-1].Less(nodes[i]) {
			nodes, keys, edges = mergeNodes(nodes, keys, edges)
			break
		}
	}
	return newGraph(facet, csr(nodes, keys, edges)), true
}

// ascending reports whether keys strictly increase.
func ascending(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return false
		}
	}
	return true
}

// mergeNodes ranks nodes given in any order, possibly repeated, into their
// distinct Node.Less order, renumbers the edge keys to match, and sums the
// counters of edges that then coincide.
func mergeNodes(nodes []Node, keys []uint64, edges []Edge) ([]Node, []uint64, []Edge) {
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return nodes[order[a]].Less(nodes[order[b]]) })
	rank := make([]uint64, len(nodes))
	uniq := make([]Node, 0, len(nodes))
	for _, i := range order {
		if len(uniq) == 0 || uniq[len(uniq)-1] != nodes[i] {
			uniq = append(uniq, nodes[i])
		}
		rank[i] = uint64(len(uniq) - 1)
	}
	for e, k := range keys {
		keys[e] = rank[k>>32]<<32 | rank[uint32(k)]
	}
	keys, edges = sortEdges(len(uniq), keys, edges)
	out := 0
	for e, k := range keys {
		if out > 0 && keys[out-1] == k {
			edges[out-1].Counters.Add(edges[e].Counters)
			continue
		}
		keys[out], edges[out] = k, edges[e]
		out++
	}
	return uniq, keys[:out], edges[:out]
}

// sortEdges orders an edge slab keyed src<<32|dst over n node ranks by key:
// a counting sort by destination and then, stably, by source. It returns
// fresh arrays and leaves keys and slab as they were.
func sortEdges(n int, keys []uint64, slab []Edge) ([]uint64, []Edge) {
	rowOff := make([]int32, n+1)
	colOff := make([]int32, n+1)
	for _, k := range keys {
		rowOff[k>>32+1]++
		colOff[uint32(k)+1]++
	}
	for i := 0; i < n; i++ {
		rowOff[i+1] += rowOff[i]
		colOff[i+1] += colOff[i]
	}
	byDst := make([]int32, len(keys)) // slab indices in destination order
	for e, k := range keys {
		j := uint32(k)
		byDst[colOff[j]] = int32(e)
		colOff[j]++
	}
	outKeys := make([]uint64, len(keys))
	outSlab := make([]Edge, len(keys))
	next := rowOff[:n] // next free position in each row
	for _, e := range byDst {
		i := keys[e] >> 32
		outKeys[next[i]] = keys[e]
		outSlab[next[i]] = slab[e]
		next[i]++
	}
	return outKeys, outSlab
}

// csr lays out nodes (distinct, in Node.Less order) and the edge slab keyed
// src<<32|dst by node index, keys strictly ascending, as the frozen form.
// It adopts nodes and slab.
func csr(nodes []Node, keys []uint64, slab []Edge) *frozen {
	n := len(nodes)
	fz := &frozen{
		nodes:  nodes,
		rowOff: make([]int32, n+1),
		cols:   make([]int32, len(keys)),
		edges:  slab,
	}
	for e, k := range keys {
		fz.rowOff[k>>32+1]++
		fz.cols[e] = int32(uint32(k))
	}
	for i := 0; i < n; i++ {
		fz.rowOff[i+1] += fz.rowOff[i]
	}
	fz.mirror()
	return fz
}

// mirror builds the CSC arrays from the sorted CSR: visiting rows in
// ascending order with ascending columns inside each row delivers every
// column's sources already ascending, so no second sort is needed.
func (fz *frozen) mirror() {
	n, m := len(fz.nodes), len(fz.cols)
	fz.inOff = make([]int32, n+1)
	for _, j := range fz.cols {
		fz.inOff[j+1]++
	}
	for i := 0; i < n; i++ {
		fz.inOff[i+1] += fz.inOff[i]
	}
	fz.inSrc = make([]int32, m)
	fz.inEdge = make([]int32, m)
	fill := make([]int32, n)
	for i := 0; i < n; i++ {
		for k := fz.rowOff[i]; k < fz.rowOff[i+1]; k++ {
			j := fz.cols[k]
			p := fz.inOff[j] + fill[j]
			fill[j]++
			fz.inSrc[p] = int32(i)
			fz.inEdge[p] = k
		}
	}
}

// pairs counts the unordered pairs of distinct nodes joined by an edge in
// either direction — Graph.NumEdges, recomputed from the arrays.
func (fz *frozen) pairs() int {
	twice := 0
	for i := range fz.nodes {
		twice += fz.degree(int32(i))
		if fz.outIdx(int32(i), int32(i)) >= 0 {
			twice-- // a self-loop is a neighbour but not a pair
		}
	}
	return twice / 2
}

// nodeID returns the id of n in the sorted node index, or (0, false).
func (fz *frozen) nodeID(n Node) (int32, bool) {
	lo, hi := 0, len(fz.nodes)
	for lo < hi {
		mid := (lo + hi) / 2
		if fz.nodes[mid].Less(n) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(fz.nodes) && fz.nodes[lo] == n {
		return int32(lo), true
	}
	return 0, false
}

// outIdx returns the slab index of the directed edge i->j, or -1.
func (fz *frozen) outIdx(i, j int32) int32 {
	lo, hi := fz.rowOff[i], fz.rowOff[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if fz.cols[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < fz.rowOff[i+1] && fz.cols[lo] == j {
		return lo
	}
	return -1
}

// outEdge returns the directed edge src->dst, or nil.
func (fz *frozen) outEdge(src, dst Node) *Edge {
	i, ok := fz.nodeID(src)
	if !ok {
		return nil
	}
	j, ok := fz.nodeID(dst)
	if !ok {
		return nil
	}
	if k := fz.outIdx(i, j); k >= 0 {
		return &fz.edges[k]
	}
	return nil
}

// degree counts the distinct neighbors of node id i by merging its sorted
// out-columns and in-sources, without allocating.
func (fz *frozen) degree(i int32) int {
	out := fz.cols[fz.rowOff[i]:fz.rowOff[i+1]]
	in := fz.inSrc[fz.inOff[i]:fz.inOff[i+1]]
	var d, a, b int
	for a < len(out) || b < len(in) {
		switch {
		case b >= len(in) || (a < len(out) && out[a] < in[b]):
			a++
		case a >= len(out) || in[b] < out[a]:
			b++
		default:
			a++
			b++
		}
		d++
	}
	return d
}
