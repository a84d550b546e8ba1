package graph

// Delta captures what changed between two graphs of the same facet — the
// paper's "what changed?" historical analysis (§1, "Dynamic").
type Delta struct {
	AddedNodes   []Node
	RemovedNodes []Node
	AddedPairs   []UndirectedEdge // pairs that communicate only in the new graph
	RemovedPairs []UndirectedEdge // pairs that communicate only in the old graph
	// ByteChange is the relative L1 change in pairwise byte counts:
	// sum |new - old| / max(1, sum old), a scalar drift score.
	ByteChange float64
}

// Diff computes the delta from old to new: a merge-join of the two sorted
// node tables, then of the two views' (A,B)-ordered pair streams, keyed by
// each node's rank in the union of both tables so ids from the two graphs
// compare directly. All byte sums are integer-valued floats, exact in any
// order.
func Diff(old, new *Graph) Delta { return DiffView(old.Undirected(), new.Undirected()) }

// DiffView is Diff over the two graphs' undirected views, for callers that
// already hold them.
func DiffView(uo, un *Undirected) Delta {
	var d Delta
	_, _, d.ByteChange = diff(uo, un, make([]int32, len(uo.Nodes)), make([]int32, len(un.Nodes)), &d)
	return d
}

// A Differ diffs views down to counts: the walk DiffView makes, without
// Delta's node and pair lists, reusing its rank scratch across calls. Not
// safe for concurrent use.
type Differ struct {
	rankOld, rankNew []int32
}

// Count returns len(AddedPairs), len(RemovedPairs) and ByteChange of
// DiffView(uo, un): the same walk in the same order, so byteChange is
// bit-equal to DiffView's.
func (df *Differ) Count(uo, un *Undirected) (added, removed int, byteChange float64) {
	df.rankOld = resize(df.rankOld, len(uo.Nodes))
	df.rankNew = resize(df.rankNew, len(un.Nodes))
	return diff(uo, un, df.rankOld, df.rankNew, nil)
}

// resize returns s with length n, reusing its array when it is big enough.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// diff is the merge-join behind DiffView and Differ.Count: it ranks every
// node in the union of the two tables into rankOld and rankNew (one slot
// per node of each view), walks the two pair streams and returns the
// added and removed pair counts and ByteChange. When d is set it also
// fills d's node and pair lists.
func diff(uo, un *Undirected, rankOld, rankNew []int32, d *Delta) (added, removed int, byteChange float64) {
	var rank int32
	for i, j := 0, 0; i < len(uo.Nodes) || j < len(un.Nodes); rank++ {
		switch {
		case j >= len(un.Nodes) || (i < len(uo.Nodes) && uo.Nodes[i].Less(un.Nodes[j])):
			if d != nil {
				d.RemovedNodes = append(d.RemovedNodes, uo.Nodes[i])
			}
			rankOld[i] = rank
			i++
		case i >= len(uo.Nodes) || un.Nodes[j].Less(uo.Nodes[i]):
			if d != nil {
				d.AddedNodes = append(d.AddedNodes, un.Nodes[j])
			}
			rankNew[j] = rank
			j++
		default:
			rankOld[i], rankNew[j] = rank, rank
			i++
			j++
		}
	}

	var l1, oldTotal float64
	po, pn := newPairWalk(uo, rankOld), newPairWalk(un, rankNew)
	for po.ok || pn.ok {
		switch {
		case !pn.ok || (po.ok && po.key < pn.key):
			b := float64(uo.Pair[po.k].Bytes)
			if d != nil {
				d.RemovedPairs = append(d.RemovedPairs, po.edge())
			}
			removed++
			oldTotal += b
			l1 += b
			po.next()
		case !po.ok || pn.key < po.key:
			if d != nil {
				d.AddedPairs = append(d.AddedPairs, pn.edge())
			}
			added++
			l1 += float64(un.Pair[pn.k].Bytes)
			pn.next()
		default:
			ob, nb := float64(uo.Pair[po.k].Bytes), float64(un.Pair[pn.k].Bytes)
			oldTotal += ob
			if nb > ob {
				l1 += nb - ob
			} else {
				l1 += ob - nb
			}
			po.next()
			pn.next()
		}
	}
	if oldTotal < 1 {
		oldTotal = 1
	}
	return added, removed, l1 / oldTotal
}

// pairWalk streams a view's unordered pairs — each row's entries at or
// right of the diagonal — in (A,B) order. key orders pairs across two
// graphs: the endpoints' union ranks, A's in the high half.
type pairWalk struct {
	u    *Undirected
	rank []int32
	row  int32
	k    int32 // index into u.Nbr / u.Pair
	key  uint64
	ok   bool
}

func newPairWalk(u *Undirected, rank []int32) pairWalk {
	w := pairWalk{u: u, rank: rank, k: -1}
	w.next()
	return w
}

func (w *pairWalk) next() {
	u := w.u
	for w.k++; int(w.k) < len(u.Nbr); w.k++ {
		for w.k >= u.Off[w.row+1] {
			w.row++
		}
		if j := u.Nbr[w.k]; j >= w.row {
			w.key = uint64(w.rank[w.row])<<32 | uint64(w.rank[j])
			w.ok = true
			return
		}
	}
	w.ok = false
}

func (w *pairWalk) edge() UndirectedEdge {
	return UndirectedEdge{A: w.u.Nodes[w.row], B: w.u.Nodes[w.u.Nbr[w.k]], Counters: w.u.Pair[w.k]}
}
