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
	rankOld := make([]int32, len(uo.Nodes))
	rankNew := make([]int32, len(un.Nodes))
	var rank int32
	for i, j := 0, 0; i < len(uo.Nodes) || j < len(un.Nodes); rank++ {
		switch {
		case j >= len(un.Nodes) || (i < len(uo.Nodes) && uo.Nodes[i].Less(un.Nodes[j])):
			d.RemovedNodes = append(d.RemovedNodes, uo.Nodes[i])
			rankOld[i] = rank
			i++
		case i >= len(uo.Nodes) || un.Nodes[j].Less(uo.Nodes[i]):
			d.AddedNodes = append(d.AddedNodes, un.Nodes[j])
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
			e := po.edge()
			d.RemovedPairs = append(d.RemovedPairs, e)
			oldTotal += float64(e.Bytes)
			l1 += float64(e.Bytes)
			po.next()
		case !po.ok || pn.key < po.key:
			e := pn.edge()
			d.AddedPairs = append(d.AddedPairs, e)
			l1 += float64(e.Bytes)
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
	d.ByteChange = l1 / oldTotal
	return d
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

func newPairWalk(u *Undirected, rank []int32) *pairWalk {
	w := &pairWalk{u: u, rank: rank, k: -1}
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
