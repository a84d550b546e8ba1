package summarize

import (
	"math"

	"cloudgraph/internal/graph"
)

// Anomaly detection over a time series of graphs: the paper observes that a
// model capturing the key patterns of a window "may also be able to
// identify when the patterns change" (§2.2, Figure 5). We score each window
// against its predecessor with the relative L1 matrix change and flag
// windows whose drift exceeds the trailing baseline by several sigma.

// WindowScore is one window's drift assessment.
type WindowScore struct {
	Index int
	// Drift is the relative L1 change of pairwise byte counts vs the
	// previous window (graph.Diff.ByteChange).
	Drift float64
	// NewPairs and LostPairs count communicating pairs that appeared or
	// disappeared vs the previous window.
	NewPairs  int
	LostPairs int
	// Anomalous is set when Drift exceeds mean + Sigma·stddev of the
	// preceding windows' drifts (needs at least MinHistory predecessors).
	Anomalous bool
}

// AnomalyOptions tunes the detector.
type AnomalyOptions struct {
	// Sigma is the threshold in standard deviations (default 3).
	Sigma float64
	// MinHistory is how many prior drifts are needed before flagging
	// (default 3).
	MinHistory int
}

// Scorer is the incremental form of the detector: it scores one window at
// a time against its predecessor and carries the drift baseline between
// calls, so the online score of window i equals the batch score over
// windows [0..i].
type Scorer struct {
	opts AnomalyOptions
	// n, mean and m2 are the running count, mean and sum of squared
	// deviations (Welford) of the non-anomalous windows' drifts so far:
	// the baseline in constant space.
	n     int
	mean  float64
	m2    float64
	index int
	diff  graph.Differ
}

// NewScorer returns a Scorer with opts' defaults applied.
func NewScorer(opts AnomalyOptions) *Scorer {
	if opts.Sigma <= 0 {
		opts.Sigma = 3
	}
	if opts.MinHistory <= 0 {
		opts.MinHistory = 3
	}
	return &Scorer{opts: opts}
}

// Step scores cur against prev, the window before it. The first window has
// no predecessor (prev nil) and gets drift 0.
func (s *Scorer) Step(prev, cur *graph.Graph) WindowScore {
	if prev == nil {
		return s.StepView(nil, nil)
	}
	return s.StepView(prev.Undirected(), cur.Undirected())
}

// StepView is Step over the two windows' undirected views, for callers
// that already hold them; prev nil marks the first window, whose cur is
// not read.
func (s *Scorer) StepView(prev, cur *graph.Undirected) WindowScore {
	score := WindowScore{Index: s.index}
	s.index++
	if prev == nil {
		return score
	}
	score.NewPairs, score.LostPairs, score.Drift = s.diff.Count(prev, cur)
	if s.n >= s.opts.MinHistory {
		score.Anomalous = score.Drift > s.mean+s.opts.Sigma*s.std()
	}
	if !score.Anomalous {
		// Only normal windows update the baseline, so a sustained
		// attack doesn't poison its own detector.
		s.observe(score.Drift)
	}
	return score
}

// observe adds one drift to the baseline.
func (s *Scorer) observe(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// std is the baseline's population standard deviation, floored so a
// perfectly steady baseline still allows slack.
func (s *Scorer) std() float64 {
	return max(math.Sqrt(s.m2/float64(s.n)), 1e-3)
}

// ScoreWindows scores consecutive graphs.
func ScoreWindows(windows []*graph.Graph, opts AnomalyOptions) []WindowScore {
	s := NewScorer(opts)
	out := make([]WindowScore, len(windows))
	var prev *graph.Graph
	for i, g := range windows {
		out[i] = s.Step(prev, g)
		prev = g
	}
	return out
}
