package graph

import "slices"

// Merge folds other's nodes, edges and series into g. Counters accumulate;
// series samples covering the same interval start are summed, the rest are
// interleaved in start order. Both graphs must share a facet; the window
// expands to cover both. Merge is how parallel partial aggregations
// (the engine's cross-shard fold, roll-up buckets) combine into one graph:
// a merge-join of the two CSR forms into a new one. other is only read, and
// g never aliases its arrays or series.
func (g *Graph) Merge(other *Graph) {
	g.fz = mergeFrozen(g.fz, other.fz)
	g.edges = g.fz.pairs()
	if g.Start.IsZero() || (!other.Start.IsZero() && other.Start.Before(g.Start)) {
		g.Start = other.Start
	}
	if other.End.After(g.End) {
		g.End = other.End
	}
}

// mergeFrozen is Merge's join of two CSR forms: a merge-join of the sorted
// node tables, then of each node's sorted rows under the remapped ids (the
// remaps are monotone, so rows stay sorted), linear in both graphs' size.
func mergeFrozen(a, b *frozen) *frozen {
	// The union sizes are known only after the join, so join into scratch
	// sized for the worst case and keep exact-size arrays: a sealed window
	// is retained long after the merge (by the bus, the timeline and the
	// runners). The edge join records where each merged edge comes from
	// instead of copying counter blocks, so its scratch is pointer-free and
	// the slab is laid out once.
	out := &frozen{nodes: make([]Node, 0, len(a.nodes)+len(b.nodes))}
	idA, idB := make([]int32, len(a.nodes)), make([]int32, len(b.nodes))
	// rowA/rowB name each merged node's row in a and b, -1 when absent.
	rowA, rowB := make([]int32, 0, cap(out.nodes)), make([]int32, 0, cap(out.nodes))
	for i, j := 0, 0; i < len(a.nodes) || j < len(b.nodes); {
		id, ra, rb := int32(len(out.nodes)), int32(-1), int32(-1)
		switch {
		case j >= len(b.nodes) || (i < len(a.nodes) && a.nodes[i].Less(b.nodes[j])):
			ra = int32(i)
		case i >= len(a.nodes) || b.nodes[j].Less(a.nodes[i]):
			rb = int32(j)
		default:
			ra, rb = int32(i), int32(j)
		}
		if ra >= 0 {
			out.nodes = append(out.nodes, a.nodes[i])
			idA[i] = id
			i++
		} else {
			out.nodes = append(out.nodes, b.nodes[j])
		}
		if rb >= 0 {
			idB[j] = id
			j++
		}
		rowA, rowB = append(rowA, ra), append(rowB, rb)
	}

	out.rowOff = make([]int32, 1, len(out.nodes)+1)
	cols := make([]int32, 0, len(a.cols)+len(b.cols))
	// fromA/fromB name each merged edge's slab index in a and b, -1 when
	// absent.
	fromA, fromB := make([]int32, 0, cap(cols)), make([]int32, 0, cap(cols))
	for u := range out.nodes {
		var ka, endA, kb, endB int32
		if r := rowA[u]; r >= 0 {
			ka, endA = a.rowOff[r], a.rowOff[r+1]
		}
		if r := rowB[u]; r >= 0 {
			kb, endB = b.rowOff[r], b.rowOff[r+1]
		}
		for ka < endA || kb < endB {
			switch {
			case kb >= endB || (ka < endA && idA[a.cols[ka]] < idB[b.cols[kb]]):
				cols, fromA, fromB = append(cols, idA[a.cols[ka]]), append(fromA, ka), append(fromB, -1)
				ka++
			case ka >= endA || idB[b.cols[kb]] < idA[a.cols[ka]]:
				cols, fromA, fromB = append(cols, idB[b.cols[kb]]), append(fromA, -1), append(fromB, kb)
				kb++
			default:
				cols, fromA, fromB = append(cols, idA[a.cols[ka]]), append(fromA, ka), append(fromB, kb)
				ka++
				kb++
			}
		}
		out.rowOff = append(out.rowOff, int32(len(cols)))
	}
	out.nodes, out.cols = slices.Clone(out.nodes), slices.Clone(cols)
	out.edges = make([]Edge, len(cols))
	for k := range out.edges {
		ka, kb := fromA[k], fromB[k]
		switch {
		case kb < 0:
			out.edges[k] = a.edges[ka]
		case ka < 0:
			out.edges[k] = Edge{Counters: b.edges[kb].Counters, Series: mergeSamples(nil, b.edges[kb].Series)}
		default:
			e := a.edges[ka]
			e.Counters.Add(b.edges[kb].Counters)
			if len(b.edges[kb].Series) > 0 {
				e.Series = mergeSamples(e.Series, b.edges[kb].Series)
			}
			out.edges[k] = e
		}
	}
	out.mirror()
	return out
}

// mergeSamples merges two per-edge series sorted by interval start into one.
// Samples whose Start buckets collide are summed, not duplicated: sharded
// partials of the same window both carry the same directed edge's interval,
// and concatenating them would double the sample count while Diff against a
// serial build stays empty only if the buckets fold. Both inputs must be
// sorted ascending by Start (the builder emits them that way); the result is
// too.
func mergeSamples(a, b []Sample) []Sample {
	if len(a) == 0 {
		return append([]Sample(nil), b...)
	}
	out := make([]Sample, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Start.Before(b[j].Start):
			out = append(out, a[i])
			i++
		case b[j].Start.Before(a[i].Start):
			out = append(out, b[j])
			j++
		default:
			s := a[i]
			s.Counters.Add(b[j].Counters)
			out = append(out, s)
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
