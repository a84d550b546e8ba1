// Package counterfactual implements the §2.3 analyses: connection summaries
// converted into flow-size and inter-arrival distributions (quantized to
// the summary frequency), a flow-completion-time model in the spirit of the
// paper's reference [71] that answers "what if" questions about load, and a
// capacity planner that finds communication bottlenecks and recommends SKU
// upgrades or proximity placement.
package counterfactual

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/topk"
)

// Dist is an empirical distribution.
type Dist struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (d *Dist) Add(v float64) {
	d.xs = append(d.xs, v)
	d.sorted = false
}

// N returns the number of observations.
func (d *Dist) N() int { return len(d.xs) }

// Mean returns the average, or 0 when empty.
func (d *Dist) Mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range d.xs {
		s += x
	}
	return s / float64(len(d.xs))
}

// Quantile returns the p-quantile (0<=p<=1) by nearest-rank, or 0 when
// empty.
func (d *Dist) Quantile(p float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	if p <= 0 {
		return d.xs[0]
	}
	if p >= 1 {
		return d.xs[len(d.xs)-1]
	}
	i := int(math.Ceil(p*float64(len(d.xs)))) - 1
	if i < 0 {
		i = 0
	}
	return d.xs[i]
}

// FlowSizes aggregates records by flow key and returns the distribution of
// total bytes per flow.
func FlowSizes(recs []flowlog.Record) *Dist {
	perFlow := make(map[flowlog.FlowKey]uint64)
	for _, r := range recs {
		perFlow[r.Key()] += r.TotalBytes()
	}
	d := &Dist{xs: make([]float64, 0, len(perFlow))}
	for _, b := range perFlow {
		d.Add(float64(b))
	}
	return d
}

// InterArrivals returns the distribution of gaps between consecutive new
// flow arrivals, quantized to the telemetry interval: each flow key's first
// record timestamp is an arrival.
func InterArrivals(recs []flowlog.Record, interval time.Duration) *Dist {
	if interval <= 0 {
		interval = time.Minute
	}
	first := make(map[flowlog.FlowKey]time.Time)
	for _, r := range recs {
		k := r.Key()
		t := r.Time.Truncate(interval)
		if cur, ok := first[k]; !ok || t.Before(cur) {
			first[k] = t
		}
	}
	arrivals := make([]time.Time, 0, len(first))
	for _, t := range first {
		arrivals = append(arrivals, t)
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Before(arrivals[j]) })
	d := &Dist{}
	for i := 1; i < len(arrivals); i++ {
		d.Add(arrivals[i].Sub(arrivals[i-1]).Seconds())
	}
	return d
}

// FCTModel is a processor-sharing approximation of flow completion time on
// a bottleneck link: a flow of size s on a link of capacity C at utilization
// ρ completes in (s/C)/(1−ρ). It captures the first-order effect the
// paper's counterfactuals need: how FCTs degrade as load concentrates.
type FCTModel struct {
	// CapacityBps is the link capacity in bytes per second.
	CapacityBps float64
	// Rho is the background utilization in [0, 1).
	Rho float64
}

// FCT returns the modelled completion time of a flow of sizeBytes. An
// overloaded or zero-capacity link returns a very large duration rather
// than dividing by zero.
func (m FCTModel) FCT(sizeBytes float64) time.Duration {
	if m.CapacityBps <= 0 || m.Rho >= 1 {
		return time.Duration(math.MaxInt64)
	}
	secs := sizeBytes / m.CapacityBps / (1 - m.Rho)
	if secs > 1e12 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(secs * float64(time.Second))
}

// Slowdown is the FCT inflation factor relative to an idle link.
func (m FCTModel) Slowdown() float64 {
	if m.Rho >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - m.Rho)
}

// FCTQuantiles evaluates the model over a flow-size distribution and
// returns the FCT at each requested quantile of flow size.
func (m FCTModel) FCTQuantiles(sizes *Dist, ps []float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = m.FCT(sizes.Quantile(p))
	}
	return out
}

// NodeLoad is one node's traffic load against its capacity.
type NodeLoad struct {
	Node graph.Node
	// BytesPerMin is the node's total exchanged bytes per minute of the
	// graph window.
	BytesPerMin float64
	// Utilization is BytesPerMin over capacity (0 when capacity unknown).
	Utilization float64
}

// Bottlenecks ranks nodes by utilization (or raw load when capacityPerMin
// is zero), descending — Figure 6's "where to invest more capacity"
// question made actionable.
func Bottlenecks(g *graph.Graph, capacityPerMin float64) []NodeLoad {
	minutes := g.End.Sub(g.Start).Minutes()
	if minutes <= 0 {
		minutes = 60
	}
	nodes := g.Nodes()
	out := make([]NodeLoad, 0, len(nodes))
	for _, n := range nodes {
		load := float64(g.NodeStrength(n, graph.Bytes)) / minutes
		nl := NodeLoad{Node: n, BytesPerMin: load}
		if capacityPerMin > 0 {
			nl.Utilization = load / capacityPerMin
		}
		out = append(out, nl)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BytesPerMin != out[j].BytesPerMin {
			return out[i].BytesPerMin > out[j].BytesPerMin
		}
		return out[i].Node.Less(out[j].Node)
	})
	return out
}

// Plan is a capacity plan: which VMs to upgrade (change SKU) and which
// pairs to co-locate into a proximity group or availability zone.
type Plan struct {
	// Upgrades lists nodes above the utilization threshold, worst first.
	Upgrades []NodeLoad
	// Proximity lists the heaviest-exchanging pairs, best co-location
	// candidates first.
	Proximity []graph.UndirectedEdge
}

// PlanCapacity builds a plan: nodes above utilThreshold become upgrade
// recommendations and the topPairs heaviest pairs become proximity-group
// candidates (§2.3: "relocate VMs that exchange a lot of data into the same
// availability zone or a proximity group"). topPairs <= 0 asks for no
// proximity list.
func PlanCapacity(g *graph.Graph, capacityPerMin float64, utilThreshold float64, topPairs int) Plan {
	return PlanCapacityView(g, g.Undirected(), capacityPerMin, utilThreshold, topPairs)
}

// PlanCapacityView is PlanCapacity for a caller that already holds u, g's
// undirected view.
func PlanCapacityView(g *graph.Graph, u *graph.Undirected, capacityPerMin float64, utilThreshold float64, topPairs int) Plan {
	var plan Plan
	// Without a capacity every utilization is zero, so no node can reach
	// a positive threshold: skip ranking the loads.
	if capacityPerMin > 0 && utilThreshold > 0 {
		for _, nl := range Bottlenecks(g, capacityPerMin) {
			if nl.Utilization >= utilThreshold {
				plan.Upgrades = append(plan.Upgrades, nl)
			}
		}
	}
	plan.Proximity = heaviestPairs(u, topPairs)
	return plan
}

// heaviestPairs returns the k heaviest unordered pairs of the view u, most
// bytes first, ties by (A, B) in node order. It keeps a k-slot heap of
// positions in the view instead of sorting every pair: O(p log k) for p
// pairs.
func heaviestPairs(u *graph.Undirected, k int) []graph.UndirectedEdge {
	if k <= 0 {
		return nil
	}
	// A candidate is (a, off): node id a and the position of its pair with
	// Nbr[off] >= a. View ids are in node order, so comparing ids is
	// comparing nodes.
	type pos struct{ a, off int32 }
	order := func(x, y pos) int {
		if bx, by := u.Pair[x.off].Bytes, u.Pair[y.off].Bytes; bx != by {
			return cmp.Compare(by, bx)
		}
		if x.a != y.a {
			return cmp.Compare(x.a, y.a)
		}
		return cmp.Compare(u.Nbr[x.off], u.Nbr[y.off])
	}
	var kept []pos
	for a := range u.Nodes {
		for off := u.Off[a]; off < u.Off[a+1]; off++ {
			if int(u.Nbr[off]) >= a { // the pair's lower endpoint offers it
				kept = topk.Offer(kept, k, pos{int32(a), off}, order)
			}
		}
	}
	slices.SortFunc(kept, order)
	out := make([]graph.UndirectedEdge, len(kept))
	for i, p := range kept {
		out[i] = graph.UndirectedEdge{A: u.Nodes[p.a], B: u.Nodes[u.Nbr[p.off]], Counters: u.Pair[p.off]}
	}
	return out
}
