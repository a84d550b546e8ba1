package policy

import (
	"math/rand"
	"net/netip"
	"testing"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
	"cloudgraph/internal/segment"
)

// naiveChurnOnMove is ChurnOnMove as it was before the closed form: the
// member lists of every segment, the peer sets of `from` and `to` as maps,
// and a Node-keyed set of the touched VMs. Kept as the reference.
func naiveChurnOnMove(r *Reachability, n graph.Node, to int) ChurnReport {
	from, ok := r.Assign[n]
	rep := ChurnReport{Node: n, From: from, To: to}
	if !ok || from == to {
		return rep
	}
	segs := r.Assign.Segments()
	nSegs := len(segs)
	if to >= nSegs {
		nSegs = to + 1
	}
	peersOf := func(s int) map[int]bool {
		peers := make(map[int]bool)
		for t := 0; t < nSegs; t++ {
			if r.Allowed[pairOf(s, t)] {
				peers[t] = true
			}
		}
		return peers
	}
	oldPeers := peersOf(from)
	newPeers := peersOf(to)
	touched := make(map[graph.Node]bool)
	for s := range oldPeers {
		for _, m := range naiveMembers(segs, s) {
			if m != n {
				touched[m] = true
			}
		}
	}
	for s := range newPeers {
		for _, m := range naiveMembers(segs, s) {
			if m != n {
				touched[m] = true
			}
		}
	}
	rep.IPRuleUpdates = len(touched) + 1
	rep.TagUpdates = 1
	if !naiveSameSet(oldPeers, newPeers) {
		rep.TagUpdates++
	}
	return rep
}

func naiveMembers(segs [][]graph.Node, s int) []graph.Node {
	if s < 0 || s >= len(segs) {
		return nil
	}
	return segs[s]
}

func naiveSameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// naiveBlastRadius is BlastRadius over the member lists.
func naiveBlastRadius(r *Reachability, n graph.Node) int {
	s, ok := r.Assign[n]
	if !ok {
		return 0
	}
	count := 0
	for t, members := range r.Assign.Segments() {
		if r.Allowed[pairOf(s, t)] {
			count += len(members)
			if t == s {
				count--
			}
		}
	}
	return count
}

// churnPolicies returns policies over graphtest's shapes: learned from the
// jaccard-louvain segmentation, learned from a random assignment with gaps
// in the ids and the isolated nodes in a segment of their own (no allowed
// peer), and a literal with a random allow list that also names segments
// past the last one.
func churnPolicies(t *testing.T, seed int64) map[string]*Reachability {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]*Reachability)
	for _, c := range graphtest.Cases(seed) {
		auto, err := segment.Run(segment.StrategyJaccardLouvain, c.G, segment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[c.Name+"/learned"] = Learn(c.G, auto)

		random := segment.Assignment{}
		ids := []int{0, 1, 3, 4, 6}
		for _, n := range c.G.Nodes() {
			random[n] = ids[rng.Intn(len(ids))]
			if c.G.Degree(n) == 0 {
				random[n] = 8
			}
		}
		out[c.Name+"/random"] = Learn(c.G, random)

		literal := &Reachability{Assign: random, Allowed: make(map[SegPair]bool)}
		for i := 0; i < 12; i++ {
			literal.Allowed[pairOf(rng.Intn(11), rng.Intn(11))] = true
		}
		out[c.Name+"/literal"] = literal
	}
	return out
}

// TestChurnOnMoveMatchesNaive checks the closed form against the member
// lists for every assigned node and an unknown one, moved to every segment
// id from -1 to past the last (so to == from, ids with no members and ids
// beyond the segment count all occur), and BlastRadius alongside.
func TestChurnOnMoveMatchesNaive(t *testing.T) {
	stranger := graph.IPNode(netip.MustParseAddr("203.0.113.9"))
	for seed := int64(1); seed <= 3; seed++ {
		for name, r := range churnPolicies(t, seed) {
			nSegs := len(r.Assign.Segments())
			nodes := []graph.Node{stranger}
			for n := range r.Assign {
				nodes = append(nodes, n)
			}
			for _, n := range nodes {
				if got, want := r.BlastRadius(n), naiveBlastRadius(r, n); got != want {
					t.Fatalf("seed %d %s: BlastRadius(%v) = %d, want %d", seed, name, n, got, want)
				}
				for to := -1; to <= nSegs+2; to++ {
					got, want := r.ChurnOnMove(n, to), naiveChurnOnMove(r, n, to)
					if got != want {
						t.Fatalf("seed %d %s: ChurnOnMove(%v, %d) = %+v, want %+v", seed, name, n, to, got, want)
					}
				}
			}
		}
	}
}

func TestChurnOnMove(t *testing.T) {
	g, assign, nodes := fixture()
	r := Learn(g, assign)
	// Move be1 from segment 1 (backends) to segment 2 (db).
	rep := r.ChurnOnMove(nodes["be1"], 2)
	if rep.From != 1 || rep.To != 2 {
		t.Fatalf("report = %+v", rep)
	}
	// Segments reaching 1: {0, 2}; reaching 2: {1}. Touched VMs: members
	// of 0 (fe1, fe2), 2 (db1) and 1 minus the mover (be2) = 4, plus the
	// mover's own table = 5.
	if rep.IPRuleUpdates != 5 {
		t.Errorf("IPRuleUpdates = %d, want 5", rep.IPRuleUpdates)
	}
	// Peer sets differ ({0,2} vs {1}), so: retag + own table = 2.
	if rep.TagUpdates != 2 {
		t.Errorf("TagUpdates = %d, want 2", rep.TagUpdates)
	}
	if rep.TagUpdates >= rep.IPRuleUpdates {
		t.Error("tags should churn less than per-IP rules")
	}
}

func TestChurnNoopCases(t *testing.T) {
	g, assign, nodes := fixture()
	r := Learn(g, assign)
	if rep := r.ChurnOnMove(nodes["fe1"], 0); rep.IPRuleUpdates != 0 || rep.TagUpdates != 0 {
		t.Errorf("same-segment move should be free: %+v", rep)
	}
	stranger := graph.IPNode(netip.MustParseAddr("203.0.113.9"))
	if rep := r.ChurnOnMove(stranger, 1); rep.IPRuleUpdates != 0 {
		t.Errorf("unknown node move should be free: %+v", rep)
	}
}

func TestChurnScalesWithPeersNotSegments(t *testing.T) {
	// A big fleet: two segments of n VMs that talk to each other. Moving
	// one VM between them touches all 2n-1 peers under per-IP rules but
	// stays O(1) under tags.
	const n = 50
	m := graphtest.NewModel(graph.FacetIP)
	assign := make(map[graph.Node]int)
	var a0 graph.Node
	for i := 0; i < n; i++ {
		a := graph.IPNode(netip.AddrFrom4([4]byte{10, 9, 0, byte(i + 1)}))
		b := graph.IPNode(netip.AddrFrom4([4]byte{10, 9, 1, byte(i + 1)}))
		if i == 0 {
			a0 = a
		}
		assign[a] = 0
		assign[b] = 1
		m.Add(a, b, graph.Counters{Bytes: 10})
	}
	g := m.Graph()
	r := Learn(g, assign)
	rep := r.ChurnOnMove(a0, 1)
	if rep.IPRuleUpdates != 2*n {
		t.Errorf("IPRuleUpdates = %d, want %d", rep.IPRuleUpdates, 2*n)
	}
	if rep.TagUpdates > 2 {
		t.Errorf("TagUpdates = %d, want O(1)", rep.TagUpdates)
	}
}
