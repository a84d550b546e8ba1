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
}

// Replay drives this plane over a recorded stream, offline: records are
// windowed with the same Windower the engine shards use (default facet, no
// collapse) and each completed window goes through Restore, in epoch
// order, on the calling goroutine. It is the batch path of cmd/experiments
// — the function the online consumer runs, so the figures a replay
// produces are the figures the daemon serves. Returns the completed
// windows.
func (p *Plane) Replay(recs []flowlog.Record, opts ReplayOptions) []*graph.Graph {
	if opts.Window <= 0 {
		opts.Window = time.Hour
	}
	var windows []*graph.Graph
	var epoch uint64
	w := core.NewWindower(opts.Window, graph.BuilderOptions{})
	w.OnComplete = func(g *graph.Graph) {
		epoch++
		windows = append(windows, g)
		p.Restore(epoch, g)
	}
	for _, rec := range recs {
		w.Add(rec)
	}
	w.Flush()
	return windows
}
