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
	opts    AnomalyOptions
	history []float64 // drifts of the non-anomalous windows so far
	index   int
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
	d := graph.DiffView(prev, cur)
	score.Drift = d.ByteChange
	score.NewPairs = len(d.AddedPairs)
	score.LostPairs = len(d.RemovedPairs)
	if len(s.history) >= s.opts.MinHistory {
		mean, sd := meanStd(s.history)
		score.Anomalous = score.Drift > mean+s.opts.Sigma*sd
	}
	if !score.Anomalous {
		// Only normal windows update the baseline, so a sustained
		// attack doesn't poison its own detector.
		s.history = append(s.history, score.Drift)
	}
	return score
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

func meanStd(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	if sd < 1e-3 {
		sd = 1e-3 // floor: perfectly steady baselines still allow slack
	}
	return mean, sd
}
