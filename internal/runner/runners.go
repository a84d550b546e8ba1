package runner

import (
	"sort"

	"cloudgraph/internal/counterfactual"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/policy"
	"cloudgraph/internal/segment"
	"cloudgraph/internal/summarize"
)

// DefaultRunners returns the paper's §2 analyses with default tuning —
// what cloudgraphd puts online when -live is set. All four read each
// window's undirected view, so they share one viewMemo: each window's view
// is built once. The segment and policy runners segment every window the
// same way, so they also share one segMemo: each window is segmented once,
// by whichever of the two asks first. The memos are unlocked, so the
// returned set must be driven from one goroutine, as the plane drives it.
func DefaultRunners() []Runner {
	views := new(viewMemo)
	segs := &segMemo{views: views}
	seg := NewSegment(segment.StrategyJaccardLouvain, segment.Options{})
	sum := NewSummarize(summarize.AnomalyOptions{})
	cf := NewCounterfactual(0, 0.8, 10)
	pol := NewPolicyChurn(segment.StrategyJaccardLouvain, segment.Options{})
	seg.memo, pol.memo = segs, segs
	sum.views, cf.views = views, views
	return []Runner{seg, sum, cf, pol}
}

// viewMemo holds the undirected views of the last two windows asked for,
// for the runners sharing it: each window's view is built once, and the
// summarize runner's drift step finds the previous window's view still
// there. What it hands out is read-only to every runner, and valid until
// the memo evicts it: a third window's view is built in the arrays of the
// view it evicts, so no runner may keep a view past the call it was asked
// for in. Two entries, most recently asked last, bound what the plane
// retains to the current and previous windows' views; nothing is cached on
// the graphs, which the timeline holds for much longer.
type viewMemo struct {
	entries [2]viewEntry
}

// viewEntry is one memoised view, keyed by the window pointer.
type viewEntry struct {
	g *graph.Graph
	u *graph.Undirected
}

// view returns g.Undirected(), built once across the memo's runners. A nil
// memo builds it directly.
func (m *viewMemo) view(g *graph.Graph) *graph.Undirected {
	if m == nil {
		return g.Undirected()
	}
	switch g {
	case m.entries[1].g:
	case m.entries[0].g:
		m.entries[0], m.entries[1] = m.entries[1], m.entries[0]
	default:
		m.entries[0], m.entries[1] = m.entries[1], viewEntry{g: g, u: g.UndirectedReuse(m.entries[0].u)}
	}
	return m.entries[1].u
}

// segMemo holds the segmentation of the latest window asked for, keyed by
// the window pointer and the segmentation parameters, for the runners
// sharing it: whichever asks first segments the view its viewMemo hands
// out, and the other reuses the Assignment.
type segMemo struct {
	views    *viewMemo
	g        *graph.Graph
	strategy segment.Strategy
	opts     segment.Options
	assign   segment.Assignment
	err      error
}

// run returns segment.Run(s, g, opts), computed once per window across the
// memo's runners. The Assignment is shared between them: read-only. A nil
// memo segments directly.
func (m *segMemo) run(s segment.Strategy, g *graph.Graph, opts segment.Options) (segment.Assignment, error) {
	if m == nil {
		return segment.Run(s, g, opts)
	}
	if m.g != g || m.strategy != s || m.opts != opts {
		m.g, m.strategy, m.opts = g, s, opts
		m.assign, m.err = segment.RunView(s, m.views.view(g), opts)
	}
	return m.assign, m.err
}

// ---- segment ----

// SegmentResult is the auto micro-segmentation of one window.
//
//wire:schema
type SegmentResult struct {
	Epoch       uint64     `json:"epoch"`
	NumSegments int        `json:"num_segments"`
	Segments    [][]string `json:"segments"`
	Error       string     `json:"error,omitempty"`
}

// SegmentRunner re-segments each window with the configured strategy. It
// carries no state across windows, so it segments only the windows whose
// Result is asked for.
type SegmentRunner struct {
	strategy segment.Strategy
	opts     segment.Options
	memo     *segMemo // shared with the policy runner by DefaultRunners
	epoch    uint64
	g        *graph.Graph // latest window, until Result segments it
	last     SegmentResult
}

// NewSegment returns the "segment" runner.
func NewSegment(s segment.Strategy, opts segment.Options) *SegmentRunner {
	return &SegmentRunner{strategy: s, opts: opts}
}

func (r *SegmentRunner) Name() string { return "segment" }

func (r *SegmentRunner) OnSnapshot(epoch uint64, g *graph.Graph) { r.epoch, r.g = epoch, g }

func (r *SegmentRunner) Result() any {
	if r.g != nil {
		r.last = r.segment(r.epoch, r.g)
		r.g = nil
	}
	return r.last
}

func (r *SegmentRunner) segment(epoch uint64, g *graph.Graph) SegmentResult {
	res := SegmentResult{Epoch: epoch}
	assign, err := r.memo.run(r.strategy, g, r.opts)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Segments = segmentNames(g, assign)
	res.NumSegments = len(res.Segments)
	return res
}

// segmentNames renders g's assignment as sorted member-name lists, the
// stable wire form (graph.Node maps cannot marshal as JSON keys): each
// segment's members in node order, which g's node table already is, and
// the segments ordered by their first member's name.
func segmentNames(g *graph.Graph, assign segment.Assignment) [][]string {
	var segs [][]string // by segment id
	g.EachNode(func(n graph.Node) {
		c := assign[n]
		for len(segs) <= c {
			segs = append(segs, nil)
		}
		segs[c] = append(segs[c], n.String())
	})
	out := segs[:0]
	for _, seg := range segs {
		if len(seg) > 0 {
			out = append(out, seg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// ---- summarize ----

// SummarizeResult is the succinct summary plus anomaly score of one
// window.
//
//wire:schema
type SummarizeResult struct {
	Epoch    uint64 `json:"epoch"`
	Headline string `json:"headline"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	Hubs     int    `json:"hubs"`
	Cliques  int    `json:"cliques"`
	// FractionFor90 is the CCDF headline: the smallest fraction of nodes
	// carrying 90% of the bytes.
	FractionFor90 float64 `json:"fraction_for_90"`
	// Score is the hour-over-hour drift assessment, computed
	// incrementally with exactly the batch semantics of
	// summarize.ScoreWindows.
	Score summarize.WindowScore `json:"score"`
}

// SummarizeRunner computes per-window summaries and carries the
// incremental anomaly baseline in a summarize.Scorer, so the online score
// of window i equals the batch summarize.ScoreWindows over windows [0..i].
// The scorer steps on every window; the summary itself is computed only
// for the windows whose Result is asked for.
type SummarizeRunner struct {
	scorer  *summarize.Scorer
	sum     summarize.Summarizer
	views   *viewMemo    // shared with the other runners by DefaultRunners
	prev    *graph.Graph // latest window
	epoch   uint64
	score   summarize.WindowScore
	pending bool // prev not yet summarized
	last    SummarizeResult
}

// NewSummarize returns the "summarize" runner.
func NewSummarize(opts summarize.AnomalyOptions) *SummarizeRunner {
	return &SummarizeRunner{scorer: summarize.NewScorer(opts)}
}

func (r *SummarizeRunner) Name() string { return "summarize" }

func (r *SummarizeRunner) OnSnapshot(epoch uint64, g *graph.Graph) {
	var prev, cur *graph.Undirected
	if r.prev != nil {
		prev, cur = r.views.view(r.prev), r.views.view(g)
	}
	r.score = r.scorer.StepView(prev, cur)
	r.prev, r.epoch, r.pending = g, epoch, true
}

func (r *SummarizeRunner) Result() any {
	if !r.pending {
		return r.last
	}
	r.pending = false
	s := r.sum.View(r.prev, r.views.view(r.prev))
	r.last = SummarizeResult{
		Epoch:         r.epoch,
		Headline:      s.Headline,
		Nodes:         s.Stats.Nodes,
		Edges:         s.Stats.Edges,
		Hubs:          len(s.Hubs),
		Cliques:       len(s.Cliques),
		FractionFor90: summarize.FractionForShare(s.CCDF, 0.9),
		Score:         r.score,
	}
	return r.last
}

// ---- counterfactual ----

// CounterfactualResult is the capacity plan for one window.
//
//wire:schema
type CounterfactualResult struct {
	Epoch uint64 `json:"epoch"`
	// Upgrades lists nodes above the utilization threshold, worst first.
	Upgrades []NodeLoadJSON `json:"upgrades"`
	// Proximity lists the heaviest-exchanging pairs — co-location
	// candidates — best first.
	Proximity []PairJSON `json:"proximity"`
}

// NodeLoadJSON is counterfactual.NodeLoad in wire form.
//
//wire:schema
type NodeLoadJSON struct {
	Node        string  `json:"node"`
	BytesPerMin float64 `json:"bytes_per_min"`
	Utilization float64 `json:"utilization"`
}

// PairJSON is a graph.UndirectedEdge in wire form.
//
//wire:schema
type PairJSON struct {
	A     string `json:"a"`
	B     string `json:"b"`
	Bytes uint64 `json:"bytes"`
}

// CounterfactualRunner plans capacity per window via
// counterfactual.PlanCapacity, for the windows whose Result is asked for.
type CounterfactualRunner struct {
	capacityPerMin float64
	utilThreshold  float64
	topPairs       int
	views          *viewMemo // shared with the other runners by DefaultRunners
	epoch          uint64
	g              *graph.Graph // latest window, until Result plans it
	last           CounterfactualResult
}

// NewCounterfactual returns the "counterfactual" runner. capacityPerMin 0
// ranks by raw load; utilThreshold gates upgrade recommendations;
// topPairs bounds the proximity list.
func NewCounterfactual(capacityPerMin, utilThreshold float64, topPairs int) *CounterfactualRunner {
	return &CounterfactualRunner{
		capacityPerMin: capacityPerMin,
		utilThreshold:  utilThreshold,
		topPairs:       topPairs,
	}
}

func (r *CounterfactualRunner) Name() string { return "counterfactual" }

func (r *CounterfactualRunner) OnSnapshot(epoch uint64, g *graph.Graph) { r.epoch, r.g = epoch, g }

func (r *CounterfactualRunner) Result() any {
	if r.g != nil {
		r.last = r.plan(r.epoch, r.g)
		r.g = nil
	}
	return r.last
}

func (r *CounterfactualRunner) plan(epoch uint64, g *graph.Graph) CounterfactualResult {
	plan := counterfactual.PlanCapacityView(g, r.views.view(g), r.capacityPerMin, r.utilThreshold, r.topPairs)
	res := CounterfactualResult{Epoch: epoch}
	for _, u := range plan.Upgrades {
		res.Upgrades = append(res.Upgrades, NodeLoadJSON{
			Node: u.Node.String(), BytesPerMin: u.BytesPerMin, Utilization: u.Utilization,
		})
	}
	for _, e := range plan.Proximity {
		res.Proximity = append(res.Proximity, PairJSON{
			A: e.A.String(), B: e.B.String(), Bytes: e.Bytes,
		})
	}
	return res
}

// ---- policy churn ----

// PolicyChurnResult quantifies segment churn of one window against the
// baseline learned from the first window.
//
//wire:schema
type PolicyChurnResult struct {
	Epoch uint64 `json:"epoch"`
	// Baseline is true on the first window, which establishes the
	// segmentation and reachability policy all later windows compare to.
	Baseline bool `json:"baseline"`
	// Segments is the segment count (of the baseline when Baseline, of
	// the re-segmented current window otherwise).
	Segments int `json:"segments"`
	// Moved counts nodes whose segment changed vs the baseline.
	Moved int `json:"moved"`
	// NewNodes counts nodes absent from the baseline assignment.
	NewNodes int `json:"new_nodes"`
	// IPRuleUpdates / TagUpdates sum the per-move update costs under
	// per-IP vs tag compilation (policy.ChurnOnMove) — the §2.1 churn
	// comparison, online.
	IPRuleUpdates int `json:"ip_rule_updates"`
	TagUpdates    int `json:"tag_updates"`
	// Error reports a segmentation failure.
	Error string `json:"error,omitempty"`
}

// PolicyChurnRunner learns a baseline policy from the first window and,
// for each later window, re-segments it, aligns the new segments to the
// baseline by maximum member overlap, and prices every node move under
// both rule compilations. The baseline is learned as soon as a window
// segments; the churn of a later window is priced only when its Result is
// asked for.
type PolicyChurnRunner struct {
	strategy segment.Strategy
	opts     segment.Options
	memo     *segMemo // shared with the segment runner by DefaultRunners
	assign   segment.Assignment
	reach    *policy.Reachability
	epoch    uint64
	g        *graph.Graph // latest post-baseline window, until Result prices it
	last     PolicyChurnResult
}

// NewPolicyChurn returns the "policy" runner.
func NewPolicyChurn(s segment.Strategy, opts segment.Options) *PolicyChurnRunner {
	return &PolicyChurnRunner{strategy: s, opts: opts}
}

func (r *PolicyChurnRunner) Name() string { return "policy" }

func (r *PolicyChurnRunner) OnSnapshot(epoch uint64, g *graph.Graph) {
	if r.reach != nil {
		r.epoch, r.g = epoch, g
		return
	}
	r.last = PolicyChurnResult{Epoch: epoch}
	assign, err := r.memo.run(r.strategy, g, r.opts)
	if err != nil {
		r.last.Error = err.Error()
		return
	}
	r.assign = assign
	r.reach = policy.Learn(g, assign)
	r.last.Baseline = true
	r.last.Segments = assign.NumSegments()
}

func (r *PolicyChurnRunner) Result() any {
	if r.g != nil {
		r.last = r.churn(r.epoch, r.g)
		r.g = nil
	}
	return r.last
}

// churn prices window g's segment moves against the learned baseline.
func (r *PolicyChurnRunner) churn(epoch uint64, g *graph.Graph) PolicyChurnResult {
	res := PolicyChurnResult{Epoch: epoch}
	assign, err := r.memo.run(r.strategy, g, r.opts)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Segments = assign.NumSegments()
	mapped := alignSegments(assign, r.assign)
	// Deterministic iteration: price moves in node order, the order of
	// g's node table (assign's keys are g's nodes).
	g.EachNode(func(n graph.Node) {
		base, known := r.assign[n]
		if !known {
			res.NewNodes++
			return
		}
		to, ok := mapped[assign[n]]
		if !ok || to == base {
			return
		}
		res.Moved++
		rep := r.reach.ChurnOnMove(n, to)
		res.IPRuleUpdates += rep.IPRuleUpdates
		res.TagUpdates += rep.TagUpdates
	})
	return res
}

// alignSegments maps each segment id of the new assignment to the
// baseline segment its members overlap most (ties to the smaller
// baseline id, for determinism). New segments with no baseline overlap
// are unmapped.
func alignSegments(now, base segment.Assignment) map[int]int {
	overlap := make(map[int]map[int]int) // new seg -> base seg -> count
	for n, s := range now {
		b, ok := base[n]
		if !ok {
			continue
		}
		if overlap[s] == nil {
			overlap[s] = make(map[int]int)
		}
		overlap[s][b]++
	}
	out := make(map[int]int, len(overlap))
	for s, counts := range overlap {
		best, bestN := -1, 0
		ids := make([]int, 0, len(counts))
		for b := range counts {
			ids = append(ids, b)
		}
		sort.Ints(ids)
		for _, b := range ids {
			if counts[b] > bestN {
				best, bestN = b, counts[b]
			}
		}
		out[s] = best
	}
	return out
}
