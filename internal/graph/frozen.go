package graph

import "sort"

// frozen is the hypersparse CSR (compressed sparse row) form of a sealed
// window graph. The map-backed representation costs two map entries plus a
// heap-allocated Edge per directed edge, which does not survive the
// ~100K-node subscriptions production windows reach. Once a window seals it
// is never mutated again (the timeline and consumer-bus contract), so it is
// held frozen: nodes are one sorted slice whose index is the node id,
// out-edges are offset+column arrays with a parallel slab of per-edge
// counter blocks, and the in-direction is a CSC mirror that shares the
// slab. A Builder seals its window straight into this form, Merge of two
// frozen graphs stays in it, and Freeze converts a map-form graph. Every
// read accessor answers from the arrays; mutation thaws back to maps first
// (see Thaw), so the Graph API is unchanged either side of the seal.
//
// Layout, for n nodes and m directed edges:
//
//	nodes  [n]Node    sorted by Node.Less; index == node id
//	rowOff [n+1]int32 row i's out-edges live at [rowOff[i], rowOff[i+1])
//	cols   [m]int32   destination ids, ascending within each row
//	edges  [m]Edge    counter block (+series header) per directed edge
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

// Frozen reports whether the graph is in its immutable CSR form.
func (g *Graph) Frozen() bool { return g.fz != nil }

// Freeze converts a map-form graph to the CSR form, releasing the maps.
// Idempotent, and a no-op on the graphs builders emit. Freeze is called by
// the engine when a window completes (a collapsed window is rebuilt as
// maps) and by the timeline when a roll-up bucket seals; read accessors are
// unchanged, and a later mutation (AddEdge, Merge of a map-form graph into
// it) transparently thaws.
func (g *Graph) Freeze() {
	if g.fz != nil {
		return
	}
	n := len(g.nodes)
	fz := &frozen{nodes: make([]Node, 0, n)}
	for node := range g.nodes {
		fz.nodes = append(fz.nodes, node)
	}
	sort.Slice(fz.nodes, func(i, j int) bool { return fz.nodes[i].Less(fz.nodes[j]) })
	id := make(map[Node]int32, n)
	for i, node := range fz.nodes {
		id[node] = int32(i)
	}

	var m int
	fz.rowOff = make([]int32, n+1)
	for src, row := range g.out {
		fz.rowOff[id[src]+1] = int32(len(row))
		m += len(row)
	}
	for i := 0; i < n; i++ {
		fz.rowOff[i+1] += fz.rowOff[i]
	}
	fz.cols = make([]int32, m)
	fz.edges = make([]Edge, m)
	fill := make([]int32, n)
	for src, row := range g.out {
		i := id[src]
		for dst, e := range row {
			k := fz.rowOff[i] + fill[i]
			fill[i]++
			fz.cols[k] = id[dst]
			fz.edges[k] = *e
		}
	}
	for i := 0; i < n; i++ {
		lo, hi := fz.rowOff[i], fz.rowOff[i+1]
		sort.Sort(&rowSorter{cols: fz.cols[lo:hi], edges: fz.edges[lo:hi]})
	}

	fz.mirror()

	g.fz = fz
	g.out, g.in, g.nodes = nil, nil, nil
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

// Thaw converts back to the mutable map form. Idempotent. Series slices are
// carried over; the unordered-pair count is recomputed identically.
func (g *Graph) Thaw() {
	fz := g.fz
	if fz == nil {
		return
	}
	g.fz = nil
	g.out = make(map[Node]map[Node]*Edge, len(fz.nodes))
	g.in = make(map[Node]map[Node]*Edge, len(fz.nodes))
	g.nodes = make(map[Node]struct{}, len(fz.nodes))
	g.edges = 0
	for _, nd := range fz.nodes {
		g.nodes[nd] = struct{}{}
	}
	for i := range fz.nodes {
		for k := fz.rowOff[i]; k < fz.rowOff[i+1]; k++ {
			e := g.addDirected(fz.nodes[i], fz.nodes[fz.cols[k]], fz.edges[k].Counters)
			e.Series = fz.edges[k].Series
		}
	}
}

// thawForWrite makes the graph mutable before a mutation lands. The hot
// paths never hit it — builders work in index space, the cross-shard merge
// stays in CSR and roll-up accumulators stay map-backed — so it exists for
// correctness, not speed.
func (g *Graph) thawForWrite() {
	if g.fz != nil {
		g.Thaw()
	}
}

// rowSorter sorts one CSR row's columns ascending, keeping the parallel
// edge slab in step.
type rowSorter struct {
	cols  []int32
	edges []Edge
}

func (r *rowSorter) Len() int           { return len(r.cols) }
func (r *rowSorter) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r *rowSorter) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.edges[i], r.edges[j] = r.edges[j], r.edges[i]
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
// out-columns and in-sources — no allocation, unlike the map path.
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

// memBytes returns the exact heap footprint of the CSR arrays (node index,
// offsets, columns, edge slab, CSC mirror), excluding any edge series
// backing arrays, which both representations share.
func (fz *frozen) memBytes() int64 {
	const nodeSize = 48 // netip.Addr(24) + port(2)+pad + string header(16)
	const edgeSize = 48 // Counters(24) + series slice header(24)
	return int64(len(fz.nodes))*nodeSize +
		int64(len(fz.rowOff)+len(fz.inOff))*4 +
		int64(len(fz.cols)+len(fz.inSrc)+len(fz.inEdge))*4 +
		int64(len(fz.edges))*edgeSize
}
