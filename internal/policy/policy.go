// Package policy implements the security half of micro-segmentation (§2.1):
// learning default-deny reachability policies between µsegments from
// observed communication, compiling them to the per-VM rule tables clouds
// can enforce (and accounting for the rule explosion the paper warns
// about), evaluating flows against them, and the two higher-order policy
// kinds the paper proposes — similarity-based and proportionality-based —
// that avoid false positives reachability alone would raise. The blast
// radius metric quantifies the payoff: how many resources a single breached
// resource can still reach.
package policy

import (
	"sort"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/segment"
)

// SegPair is an unordered pair of segment ids (A <= B).
type SegPair struct {
	A, B int
}

// pairOf normalizes two segment ids into a SegPair.
func pairOf(a, b int) SegPair {
	if a > b {
		a, b = b, a
	}
	return SegPair{A: a, B: b}
}

// Reachability is a learned default-deny policy: a pair of resources may
// communicate only if their segments' pair is explicitly allowed. Assign
// must not change after Learn.
type Reachability struct {
	Assign  segment.Assignment
	Allowed map[SegPair]bool
	// sizes[s] is segment s's member count, computed once by Learn for the
	// per-node questions (ChurnOnMove, BlastRadius); nil on a literal.
	sizes []int
}

// Learn derives the reachability policy implied by one observation window:
// every segment pair that exchanged any traffic becomes an allow rule;
// everything else is denied. This reduces the blast radius of a breach to
// "only those [resources] that the resource must communicate with during
// normal operation".
func Learn(g *graph.Graph, assign segment.Assignment) *Reachability {
	r := &Reachability{Assign: assign, Allowed: make(map[SegPair]bool), sizes: memberCounts(assign)}
	for _, e := range g.UndirectedEdges() {
		sa, oka := assign[e.A]
		sb, okb := assign[e.B]
		if oka && okb {
			r.Allowed[pairOf(sa, sb)] = true
		}
	}
	return r
}

// Allows reports whether the policy permits a and b to communicate. Nodes
// outside the assignment are denied (default deny).
func (r *Reachability) Allows(a, b graph.Node) bool {
	sa, oka := r.Assign[a]
	sb, okb := r.Assign[b]
	return oka && okb && r.Allowed[pairOf(sa, sb)]
}

// AllowedPairs returns the allow list in deterministic order.
func (r *Reachability) AllowedPairs() []SegPair {
	pairs := make([]SegPair, 0, len(r.Allowed))
	for p := range r.Allowed {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return pairs
}

// Violation is a communicating pair the policy denies.
type Violation struct {
	A, B graph.Node
	graph.Counters
}

// CheckGraph returns every communicating pair in g that the policy denies,
// in deterministic order — the raw reachability alerts a new observation
// window generates.
func (r *Reachability) CheckGraph(g *graph.Graph) []Violation {
	var out []Violation
	for _, e := range g.UndirectedEdges() {
		if !r.Allows(e.A, e.B) {
			out = append(out, Violation{A: e.A, B: e.B, Counters: e.Counters})
		}
	}
	return out
}

// BlastRadius returns how many other resources a breach of node n can still
// reach under the policy: the members of every segment n's segment may talk
// to (n itself excluded). Unassigned nodes reach nothing.
func (r *Reachability) BlastRadius(n graph.Node) int {
	s, ok := r.Assign[n]
	if !ok {
		return 0
	}
	count := 0
	for t, size := range r.segmentSizes() {
		if r.Allowed[pairOf(s, t)] {
			count += size
			if t == s {
				count-- // exclude n itself
			}
		}
	}
	return count
}

// segmentSizes returns the member counts of the policy's segments, indexed
// by segment id.
func (r *Reachability) segmentSizes() []int {
	if r.sizes == nil {
		return memberCounts(r.Assign)
	}
	return r.sizes
}

// memberCounts counts each segment id's members: len(assign.Segments()[s])
// without building the lists.
func memberCounts(assign segment.Assignment) []int {
	var sizes []int
	for _, s := range assign {
		if s >= len(sizes) {
			sizes = append(sizes, make([]int, s+1-len(sizes))...)
		}
		sizes[s]++
	}
	return sizes
}

// MeanBlastRadius averages BlastRadius over all assigned nodes, the
// headline number for "mitigate the blast radius when any one resource is
// breached". The unsegmented baseline for n assigned nodes is n-1.
func (r *Reachability) MeanBlastRadius() float64 {
	if len(r.Assign) == 0 {
		return 0
	}
	var total float64
	for n := range r.Assign {
		total += float64(r.BlastRadius(n))
	}
	return total / float64(len(r.Assign))
}

// Learnable builds the trivial per-node segmentation of a graph — every
// node its own segment — useful for exact-pair policies and tests.
func Learnable(g *graph.Graph) segment.Assignment {
	assign := segment.Assignment{}
	for i, n := range g.Nodes() {
		assign[n] = i
	}
	return assign
}
