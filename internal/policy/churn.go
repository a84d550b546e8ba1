package policy

import "cloudgraph/internal/graph"

// Churn quantifies the §2.1 remark that "tags may also help reduce churn
// and lag when µsegment labels change": when a resource moves between
// µsegments (pods migrating, autoscaling, role changes), per-IP rule
// tables must be rewritten on every peer that could reach it, while
// tag-based enforcement only needs the moved VM's own tag (and its own
// table if its allowed peer set changed).

// ChurnReport counts the rule-table updates one segment move causes.
type ChurnReport struct {
	// Node is the resource that moved, with its old and new segments.
	Node     graph.Node
	From, To int
	// IPRuleUpdates is the number of per-VM table rewrites under per-IP
	// compilation: every member of every segment that may reach the old
	// or new segment must add/remove a rule for the moved IP, plus the
	// moved VM's own table.
	IPRuleUpdates int
	// TagUpdates is the number of updates under tag enforcement: retag
	// the moved VM (1), plus rewriting its own table if its allowed peer
	// segments changed.
	TagUpdates int
}

// ChurnOnMove computes the update cost of moving node n to segment to. The
// policy itself is not modified.
func (r *Reachability) ChurnOnMove(n graph.Node, to int) ChurnReport {
	from, ok := r.Assign[n]
	rep := ChurnReport{Node: n, From: from, To: to}
	if !ok || from == to {
		return rep
	}
	segs := r.segments()
	nSegs := len(segs)
	if to >= nSegs {
		nSegs = to + 1
	}

	// peersOf returns the segments allowed to talk to segment s.
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

	// Per-IP: every VM in any segment that reaches `from` must drop the
	// rule for n; every VM in any segment that reaches `to` must add one.
	// A VM in both sets rewrites once. Plus n's own table rewrite.
	touched := make(map[graph.Node]bool)
	for s := range oldPeers {
		for _, m := range members(segs, s) {
			if m != n {
				touched[m] = true
			}
		}
	}
	for s := range newPeers {
		for _, m := range members(segs, s) {
			if m != n {
				touched[m] = true
			}
		}
	}
	rep.IPRuleUpdates = len(touched) + 1

	// Tags: retag n; rewrite n's own table only if its peer set changed.
	rep.TagUpdates = 1
	if !sameSet(oldPeers, newPeers) {
		rep.TagUpdates++
	}
	return rep
}

// members returns segment s's member list, tolerating out-of-range ids.
func members(segs [][]graph.Node, s int) []graph.Node {
	if s < 0 || s >= len(segs) {
		return nil
	}
	return segs[s]
}

func sameSet(a, b map[int]bool) bool {
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
