package graph

import "slices"

// Undirected is a read-only index-space view of a graph's unordered
// communicating pairs: the symmetric adjacency in CSR form, with the two
// directions of every pair already combined. It is what the analysis
// kernels (summarize, Diff, segment) iterate instead of the Node-keyed
// accessors, so their cost is integer row walks proportional to the graph.
//
// Layout, for n nodes and p unordered pairs (s of them self-loops):
//
//	Nodes [n]Node        sorted by Node.Less; index == node id
//	Off   [n+1]int32     node i's neighbours live at [Off[i], Off[i+1])
//	Nbr   [2p-s]int32    distinct neighbour ids, ascending within each row
//	Pair  [2p-s]Counters traffic between i and Nbr[k], both directions summed
//
// Every pair a≠b appears twice (in a's row and in b's); a self-loop appears
// once, in its own row, with its counters doubled — exactly what
// PairCounters(a, a), Neighbors, Degree and NodeStrength report. Because ids
// are positions in the sorted node order, comparing ids is comparing nodes
// with Node.Less.
//
// A view is built per call and never cached on the Graph, so holding a
// window in the timeline retains nothing extra. Nodes aliases the graph's
// node table; callers must not modify any of the slices.
type Undirected struct {
	Nodes []Node
	Off   []int32
	Nbr   []int32
	Pair  []Counters
}

// Row returns node i's neighbour ids and the parallel pair counters.
func (u *Undirected) Row(i int32) ([]int32, []Counters) {
	lo, hi := u.Off[i], u.Off[i+1]
	return u.Nbr[lo:hi], u.Pair[lo:hi]
}

// Undirected builds the index-space undirected view: one linear merge of
// each node's CSR row with its CSC column.
func (g *Graph) Undirected() *Undirected { return g.UndirectedReuse(nil) }

// UndirectedReuse is Undirected built in old's arrays, growing them only
// when they are too small, for a caller that retires one view as it builds
// the next. Whoever held old must no longer read it. old may be nil.
func (g *Graph) UndirectedReuse(old *Undirected) *Undirected {
	fz := g.fz
	if old == nil {
		old = new(Undirected)
	}
	u := &Undirected{
		Nodes: fz.nodes,
		Off:   append(slices.Grow(old.Off[:0], len(fz.nodes)+1), 0),
		Nbr:   slices.Grow(old.Nbr[:0], 2*g.edges),
		Pair:  slices.Grow(old.Pair[:0], 2*g.edges),
	}
	for i := range fz.nodes {
		out, in := fz.rowOff[i], fz.inOff[i]
		outEnd, inEnd := fz.rowOff[i+1], fz.inOff[i+1]
		for out < outEnd || in < inEnd {
			switch {
			case in >= inEnd || (out < outEnd && fz.cols[out] < fz.inSrc[in]):
				u.push(fz.cols[out], fz.edges[out].Counters)
				out++
			case out >= outEnd || fz.inSrc[in] < fz.cols[out]:
				u.push(fz.inSrc[in], fz.edges[fz.inEdge[in]].Counters)
				in++
			default:
				c := fz.edges[out].Counters
				c.Add(fz.edges[fz.inEdge[in]].Counters)
				u.push(fz.cols[out], c)
				out++
				in++
			}
		}
		u.Off = append(u.Off, int32(len(u.Nbr)))
	}
	return u
}

func (u *Undirected) push(j int32, c Counters) {
	u.Nbr = append(u.Nbr, j)
	u.Pair = append(u.Pair, c)
}
