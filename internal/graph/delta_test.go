package graph_test

import (
	"reflect"
	"sort"
	"testing"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

// naiveDiff is Diff as it was before the merge-join: two pair tables over
// sorted UndirectedEdges copies. Kept as the reference Diff is tested
// against.
func naiveDiff(old, new *graph.Graph) graph.Delta {
	var d graph.Delta
	new.EachNode(func(n graph.Node) {
		if !old.HasNode(n) {
			d.AddedNodes = append(d.AddedNodes, n)
		}
	})
	old.EachNode(func(n graph.Node) {
		if !new.HasNode(n) {
			d.RemovedNodes = append(d.RemovedNodes, n)
		}
	})
	sort.Slice(d.AddedNodes, func(i, j int) bool { return d.AddedNodes[i].Less(d.AddedNodes[j]) })
	sort.Slice(d.RemovedNodes, func(i, j int) bool { return d.RemovedNodes[i].Less(d.RemovedNodes[j]) })

	type pair struct{ a, b graph.Node }
	oldPairs := make(map[pair]uint64)
	for _, e := range old.UndirectedEdges() {
		oldPairs[pair{e.A, e.B}] = e.Bytes
	}
	var l1 float64
	var oldTotal float64
	for _, v := range oldPairs {
		oldTotal += float64(v)
	}
	seen := make(map[pair]bool)
	for _, e := range new.UndirectedEdges() {
		p := pair{e.A, e.B}
		seen[p] = true
		if oldBytes, ok := oldPairs[p]; ok {
			diff := float64(e.Bytes) - float64(oldBytes)
			if diff < 0 {
				diff = -diff
			}
			l1 += diff
		} else {
			d.AddedPairs = append(d.AddedPairs, e)
			l1 += float64(e.Bytes)
		}
	}
	for _, e := range old.UndirectedEdges() {
		if !seen[pair{e.A, e.B}] {
			d.RemovedPairs = append(d.RemovedPairs, e)
			l1 += float64(e.Bytes)
		}
	}
	if oldTotal < 1 {
		oldTotal = 1
	}
	d.ByteChange = l1 / oldTotal
	return d
}

// TestUndirectedViewShapes drives the view over every generated shape —
// self-loops, isolated nodes, one-way and zero-byte edges included: the map
// form and the frozen form build the same struct, and it agrees with the
// Node-keyed accessors.
func TestUndirectedViewShapes(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		asMap, asFrozen := graphtest.Cases(seed), graphtest.FrozenCases(seed)
		for i, c := range asMap {
			um, uf := c.G.Undirected(), asFrozen[i].G.Undirected()
			if !reflect.DeepEqual(um, uf) {
				t.Fatalf("seed %d %s: map-form and frozen-form views differ", seed, c.Name)
			}
			if err := graph.ViewAgrees(c.G, um); err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.Name, err)
			}
		}
	}
}

// TestDiffMatchesNaive diffs every ordered pair of generated shapes (they
// share one address pool, so pairs are added, removed and changed) in every
// combination of representations, against the naive reference.
func TestDiffMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		asMap, asFrozen := graphtest.Cases(seed), graphtest.FrozenCases(seed)
		empty := graph.New(graph.FacetIP)
		for i, a := range asMap {
			for j, b := range asMap {
				want := naiveDiff(a.G, b.G)
				for _, pair := range [][2]*graph.Graph{
					{a.G, b.G}, {asFrozen[i].G, asFrozen[j].G}, {a.G, asFrozen[j].G}, {asFrozen[i].G, b.G},
				} {
					if got := graph.Diff(pair[0], pair[1]); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s->%s: Diff diverges from naive\n got: %+v\nwant: %+v", seed, a.Name, b.Name, got, want)
					}
				}
			}
			if got, want := graph.Diff(empty, a.G), naiveDiff(empty, a.G); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d empty->%s: Diff diverges from naive", seed, a.Name)
			}
			if got, want := graph.Diff(asFrozen[i].G, empty), naiveDiff(a.G, empty); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s->empty: Diff diverges from naive", seed, a.Name)
			}
		}
	}
}
