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
//
// Segments partition the assigned nodes, so the VMs touched under per-IP
// rules — every member of every segment allowed to reach `from` or `to`,
// each once, n excluded — number the summed sizes of those segments, less
// one when n's own segment `from` is among them: one pass over the segment
// ids, no member lists and no set.
func (r *Reachability) ChurnOnMove(n graph.Node, to int) ChurnReport {
	from, ok := r.Assign[n]
	rep := ChurnReport{Node: n, From: from, To: to}
	if !ok || from == to {
		return rep
	}
	sizes := r.segmentSizes()
	touched, peersChanged := 0, false
	for s := 0; s < max(len(sizes), to+1); s++ {
		// Per-IP: every VM in a segment that reaches `from` must drop the
		// rule for n; every VM in a segment that reaches `to` must add one.
		reachesFrom, reachesTo := r.Allowed[pairOf(from, s)], r.Allowed[pairOf(to, s)]
		if reachesFrom || reachesTo {
			if s < len(sizes) {
				touched += sizes[s]
			}
			if s == from {
				touched-- // n itself
			}
		}
		peersChanged = peersChanged || reachesFrom != reachesTo
	}
	rep.IPRuleUpdates = touched + 1 // plus n's own table rewrite

	// Tags: retag n; rewrite n's own table only if its peer set changed.
	rep.TagUpdates = 1
	if peersChanged {
		rep.TagUpdates++
	}
	return rep
}
