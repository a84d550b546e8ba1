package main

import (
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/runner"
)

// reference is the in-process oracle the daemon's QUERY answers are
// compared with: the daemon's own runners driven over the same records,
// offline. It is runner.Plane.Replay streamed — the same Windower, the
// same append-then-analyze order per epoch — so a run need not hold every
// replayed hour in memory at once.
type reference struct {
	plane *runner.Plane
	w     *core.Windower
	epoch uint64
}

// newReference builds an oracle over the default runners, leaving out
// skip ("" keeps all four): summarize on k8spaas windows costs ~200 ms a
// window, too much to recompute inside a benchmark run.
func newReference(window time.Duration, skip string) *reference {
	var rs []runner.Runner
	for _, r := range runner.DefaultRunners() {
		if r.Name() != skip {
			rs = append(rs, r)
		}
	}
	ref := &reference{
		// Every epoch stays queryable: the check draws its epochs at random.
		plane: runner.New(runner.Config{Runners: rs, History: 1 << 30}),
		w:     core.NewWindower(window, graph.BuilderOptions{}),
	}
	ref.w.OnComplete = func(g *graph.Graph) {
		ref.epoch++
		ref.plane.Restore(ref.epoch, g)
	}
	return ref
}

func (r *reference) add(recs []flowlog.Record) {
	for _, rec := range recs {
		r.w.Add(rec)
	}
}

// finish closes the open window, as the run's final FLUSH does.
func (r *reference) finish() { r.w.Flush() }
