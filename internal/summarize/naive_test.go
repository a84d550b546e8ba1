package summarize

import (
	"reflect"
	"sort"
	"testing"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

// naiveChattyCliques is ChattyCliques as it was before the index-space
// kernel: Node-keyed maps, a Neighbors set per member per step and
// pairsFilled recomputed for every candidate. Kept as the reference the
// kernel is tested against.
func naiveChattyCliques(g *graph.Graph, minSize int, minDensity, minByteShare float64) []Clique {
	if minSize < 3 {
		minSize = 3
	}
	total := float64(g.TotalTraffic().Bytes)
	if total == 0 {
		return nil
	}
	edges := g.UndirectedEdges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Bytes != edges[j].Bytes {
			return edges[i].Bytes > edges[j].Bytes
		}
		if edges[i].A != edges[j].A {
			return edges[i].A.Less(edges[j].A)
		}
		return edges[i].B.Less(edges[j].B)
	})
	used := make(map[graph.Node]bool)
	var out []Clique
	for _, seed := range edges {
		if used[seed.A] || used[seed.B] {
			continue
		}
		members := map[graph.Node]bool{seed.A: true, seed.B: true}
		for {
			best, bestBytes := graph.Node{}, uint64(0)
			candidates := make(map[graph.Node]bool)
			for m := range members {
				for c := range g.Neighbors(m) {
					if !members[c] && !used[c] {
						candidates[c] = true
					}
				}
			}
			for cand := range candidates {
				var toMembers uint64
				links := 0
				for m := range members {
					c := g.PairCounters(cand, m)
					if c.Bytes > 0 {
						toMembers += c.Bytes
						links++
					}
				}
				// Candidate must connect to enough members to keep the
				// grown set dense.
				newPairs := len(members) * (len(members) + 1) / 2
				if float64(naivePairsFilled(g, members)+links)/float64(newPairs) < minDensity {
					continue
				}
				if toMembers > bestBytes || (toMembers == bestBytes && toMembers > 0 && cand.Less(best)) {
					best, bestBytes = cand, toMembers
				}
			}
			if bestBytes == 0 || len(members) >= 64 {
				break
			}
			members[best] = true
		}
		if len(members) < minSize {
			continue
		}
		cl := naiveMaterialize(g, members, total)
		if cl.ByteShare < minByteShare || cl.Density < minDensity {
			continue
		}
		for m := range members {
			used[m] = true
		}
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].InternalBytes > out[j].InternalBytes })
	return out
}

// naivePairsFilled counts member pairs with traffic.
func naivePairsFilled(g *graph.Graph, members map[graph.Node]bool) int {
	ms := make([]graph.Node, 0, len(members))
	for m := range members {
		ms = append(ms, m)
	}
	filled := 0
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			if g.PairCounters(ms[i], ms[j]).Bytes > 0 {
				filled++
			}
		}
	}
	return filled
}

// naiveMaterialize computes a Clique's stats.
func naiveMaterialize(g *graph.Graph, members map[graph.Node]bool, totalBytes float64) Clique {
	ms := make([]graph.Node, 0, len(members))
	for m := range members {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Less(ms[j]) })
	var internal uint64
	filled := 0
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			c := g.PairCounters(ms[i], ms[j])
			internal += c.Bytes
			if c.Bytes > 0 {
				filled++
			}
		}
	}
	pairs := len(ms) * (len(ms) - 1) / 2
	cl := Clique{Members: ms, InternalBytes: internal}
	if pairs > 0 {
		cl.Density = float64(filled) / float64(pairs)
	}
	if totalBytes > 0 {
		cl.ByteShare = float64(internal) / totalBytes
	}
	return cl
}

// TestChattyCliquesMatchNaive drives the kernel and the reference over
// every generated shape, at the default thresholds and at ones that admit
// sparser and smaller cliques.
func TestChattyCliquesMatchNaive(t *testing.T) {
	params := []struct {
		minSize           int
		minDensity, share float64
	}{{3, 0.5, 0.01}, {3, 0.8, 0}, {4, 0.3, 0.05}, {2, 1, 0}}
	found := 0
	for seed := int64(1); seed <= 12; seed++ {
		for _, c := range graphtest.Cases(seed) {
			for _, p := range params {
				want := naiveChattyCliques(c.G, p.minSize, p.minDensity, p.share)
				found += len(want)
				if got := ChattyCliques(c.G, p.minSize, p.minDensity, p.share); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s %+v: kernel diverges from naive\n got: %+v\nwant: %+v", seed, c.Name, p, got, want)
				}
			}
		}
	}
	if found < 100 {
		t.Fatalf("only %d cliques across all cases; the shapes no longer exercise the search", found)
	}
}
