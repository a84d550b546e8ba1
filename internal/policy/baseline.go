package policy

import (
	"cloudgraph/internal/graph"
	"cloudgraph/internal/segment"
)

// Baseline is a learned security baseline: the segmentation of one
// (typically the first clean) window, the reachability policy derived from
// it, and that window pinned as the proportionality-growth base, so later
// history trimming cannot silently shift what Monitor compares against.
// A Baseline is immutable once learned.
type Baseline struct {
	Assign segment.Assignment
	Reach  *Reachability
	Base   *graph.Graph
}

// LearnBaseline segments g with the given strategy and derives the
// reachability policy from it.
func LearnBaseline(s segment.Strategy, g *graph.Graph, opts segment.Options) (*Baseline, error) {
	assign, err := segment.Run(s, g, opts)
	if err != nil {
		return nil, err
	}
	return &Baseline{Assign: assign, Reach: Learn(g, assign), Base: g}, nil
}

// Monitor evaluates a window against the baseline: raw reachability
// violations, similarity-filtered cohort changes, and proportionality
// assessments against the window pinned at learn time. A nil Baseline
// (nothing learned yet) returns nil.
func (b *Baseline) Monitor(g *graph.Graph) *MonitorReport {
	if b == nil {
		return nil
	}
	reach := b.Reach
	rep := &MonitorReport{
		Violations: reach.CheckGraph(g),
		Cohorts:    SimilarityPolicy{R: reach}.Evaluate(g),
	}
	if b.Base != nil {
		rep.Growth = ProportionalityPolicy{R: reach}.Evaluate(b.Base, g)
	}
	for _, c := range rep.Cohorts {
		if !c.Suppressed {
			rep.Alerts += len(c.Violations)
		}
	}
	// Violations touching nodes outside the baseline assignment — e.g. a
	// brand-new external endpoint receiving exfiltrated data or serving
	// as a C2 — have no cohort to vouch for them and always alert.
	assign := reach.Assign
	for _, v := range rep.Violations {
		_, okA := assign[v.A]
		_, okB := assign[v.B]
		if !okA || !okB {
			rep.Alerts++
			rep.Unknown = append(rep.Unknown, v)
		}
	}
	return rep
}

// MonitorReport is the security assessment of one window.
type MonitorReport struct {
	// Violations are raw reachability denials.
	Violations []Violation
	// Cohorts groups the violations per segment pair with similarity
	// suppression applied.
	Cohorts []CohortChange
	// Growth is the proportionality assessment vs the baseline window.
	Growth []PairGrowth
	// Unknown lists violations involving nodes absent from the baseline
	// assignment (new endpoints); these always alert.
	Unknown []Violation
	// Alerts counts violations that survive similarity suppression plus
	// all Unknown violations.
	Alerts int
}
