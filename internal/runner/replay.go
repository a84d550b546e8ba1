package runner

import (
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
)

// ReplayOptions parameterizes a batch replay.
type ReplayOptions struct {
	// Window is the graph window size (default one hour).
	Window time.Duration
	// Builder configures facet/labeling/series, like core.Config.
	Builder graph.BuilderOptions
	// Collapse, when Threshold > 0 or Keep set, collapses each window
	// exactly as the engine would.
	Collapse graph.CollapseOptions
}

// Replay drives this plane's runners over a recorded stream, offline:
// records are windowed with the same Windower the engine shards use,
// collapsed the same way, appended to the timeline and analyzed in epoch
// order on the calling goroutine. It is the batch path of
// cmd/experiments — one code path for online and offline, so the figures
// a replay produces are the figures the daemon serves. Returns the
// completed windows.
func (p *Plane) Replay(recs []flowlog.Record, opts ReplayOptions) []*graph.Graph {
	if opts.Window <= 0 {
		opts.Window = time.Hour
	}
	var windows []*graph.Graph
	var epoch uint64
	w := core.NewWindower(opts.Window, opts.Builder)
	w.OnComplete = func(g *graph.Graph) {
		if opts.Collapse.Threshold > 0 || opts.Collapse.Keep != nil {
			g = g.Collapse(opts.Collapse)
		}
		epoch++
		windows = append(windows, g)
		p.tl.Append(epoch, g)
		for _, r := range p.runners {
			p.step(r, epoch, g)
		}
	}
	for _, rec := range recs {
		w.Add(rec)
	}
	w.Flush()
	return windows
}
