package graph_test

import (
	"reflect"
	"testing"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

// naiveDiff is Diff as it was before the merge-join — two pair tables over
// sorted pair lists — read from the models' maps. Kept as the reference
// Diff is tested against.
func naiveDiff(old, new *graphtest.Model) graph.Delta {
	var d graph.Delta
	for _, n := range sortedNodes(new) {
		if !old.Nodes[n] {
			d.AddedNodes = append(d.AddedNodes, n)
		}
	}
	for _, n := range sortedNodes(old) {
		if !new.Nodes[n] {
			d.RemovedNodes = append(d.RemovedNodes, n)
		}
	}

	type pair struct{ a, b graph.Node }
	oldPairs := make(map[pair]uint64)
	for _, e := range undirectedEdges(old) {
		oldPairs[pair{e.A, e.B}] = e.Bytes
	}
	var l1 float64
	var oldTotal float64
	for _, v := range oldPairs {
		oldTotal += float64(v)
	}
	seen := make(map[pair]bool)
	for _, e := range undirectedEdges(new) {
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
	for _, e := range undirectedEdges(old) {
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
// self-loops, isolated nodes, one-way and zero-byte edges included — and
// checks it against the Node-keyed accessors.
func TestUndirectedViewShapes(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, c := range graphtest.Cases(seed) {
			if err := viewAgrees(c.G, c.G.Undirected()); err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.Name, err)
			}
		}
	}
}

// TestDiffMatchesNaive diffs every ordered pair of generated shapes (they
// share one address pool, so pairs are added, removed and changed), and
// each shape against the empty graph both ways, against the naive
// reference.
func TestDiffMatchesNaive(t *testing.T) {
	empty := graphtest.NewModel(graph.FacetIP)
	for seed := int64(1); seed <= 10; seed++ {
		cs := graphtest.Cases(seed)
		for _, a := range cs {
			for _, b := range cs {
				if got, want := graph.Diff(a.G, b.G), naiveDiff(a.M, b.M); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s->%s: Diff diverges from naive\n got: %+v\nwant: %+v", seed, a.Name, b.Name, got, want)
				}
			}
			if got, want := graph.Diff(empty.Graph(), a.G), naiveDiff(empty, a.M); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d empty->%s: Diff diverges from naive", seed, a.Name)
			}
			if got, want := graph.Diff(a.G, empty.Graph()), naiveDiff(a.M, empty); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s->empty: Diff diverges from naive", seed, a.Name)
			}
		}
	}
}
