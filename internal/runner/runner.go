// Package runner is the online analysis plane: one Runner interface that
// every §2 analysis (auto micro-segmentation, succinct summaries,
// counterfactual capacity planning, policy churn) implements so the same
// code runs both online inside cloudgraphd — as consumers on the engine's
// fan-out bus — and offline in cmd/experiments, driven by Replay over a
// recorded stream. Because both paths execute the identical runner over
// the identical window sequence, online and batch results cannot drift;
// the equivalence test pins this per epoch, byte for byte.
package runner

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/timeline"
	"cloudgraph/internal/trace"
	"cloudgraph/internal/watermark"
)

// Runner is one online analysis. The plane invokes OnSnapshot once per
// completed window, in epoch order, always from the same goroutine (the
// analysis's bus consumer), and reads Result immediately after — a Runner
// therefore needs no internal locking.
//
// OnSnapshot only advances the state later windows depend on (a drift
// baseline, a learned policy). Result computes the analysis of the latest
// snapshot on its first call after OnSnapshot, caches it until the next,
// and returns it as a JSON-marshalable value that must not depend on
// whether Result was called for the earlier snapshots. Online the two run
// back to back, so every window is analysed once; a disk QUERY replays
// history through OnSnapshot and calls Result once, for the epoch asked
// about.
//
// Runners of one set may share work derived from the same window:
// DefaultRunners' segment and policy runners share one segmentation per
// window (segMemo). Whatever is shared is read-only to every runner that
// receives it — the segment.Assignment included, which the policy runner
// also keeps as its baseline — because the sharers run on different
// goroutines.
type Runner interface {
	Name() string
	OnSnapshot(epoch uint64, g *graph.Graph)
	Result() any
}

// Config parameterizes a Plane.
type Config struct {
	// Runners are the online analyses. Defaults to DefaultRunners().
	Runners []Runner
	// History bounds the windows the plane retains in memory (default
	// 96): per-runner epoch results and the timeline's window extents, so
	// in-memory QUERY and time resolution cover the same epochs.
	History int
	// Telemetry, when set, receives per-analysis run latency histograms.
	Telemetry *telemetry.Registry
	// Trace, when set, records an "analysis.<name>" span against every
	// sampled record riding an analyzed window, continuing the record's
	// journey past the store append.
	Trace *trace.Tracer
	// Watermarks, when set, tracks the plane's epoch progress: the
	// "published" stage advances as the timeline appends, and one
	// SLO-tracked "analyzed.<name>" stage advances per runner as its
	// result lands. Nil disables watermarking.
	Watermarks *watermark.Tracker
}

// Plane wires a timeline and a set of runners to an engine's consumer
// bus, retains per-epoch results, and answers QUERY lookups.
type Plane struct {
	tl      *timeline.Timeline
	runners []Runner
	history int
	tracer  *trace.Tracer

	mu      sync.RWMutex
	results map[string]map[uint64]json.RawMessage // runner -> epoch -> result
	order   map[string][]uint64                   // insertion order, for eviction
	latest  map[string]uint64
	// hist, when set, backs queries for epochs evicted from (or never in)
	// the in-memory result maps; histRunners mints the throwaway runner a
	// disk replay drives. See SetHistory.
	hist        HistorySource
	histRunners func() []Runner

	telRun map[string]*telemetry.Histogram

	// Watermark stages: the timeline's published stage and one analyzed
	// stage per runner. Nil when watermarking is off (nil-safe handles).
	wmPublished *watermark.Stage
	wmAnalyzed  map[string]*watermark.Stage
}

// New builds a Plane. The zero Config is usable: default retention,
// default runners.
func New(cfg Config) *Plane {
	if cfg.History <= 0 {
		cfg.History = 96
	}
	if cfg.Runners == nil {
		cfg.Runners = DefaultRunners()
	}
	p := &Plane{
		tl:      timeline.New(timeline.Config{Retention: cfg.History}),
		runners: cfg.Runners,
		history: cfg.History,
		tracer:  cfg.Trace,
		results: make(map[string]map[uint64]json.RawMessage),
		order:   make(map[string][]uint64),
		latest:  make(map[string]uint64),
		telRun:  make(map[string]*telemetry.Histogram),

		wmPublished: cfg.Watermarks.Stage("published", false),
		wmAnalyzed:  make(map[string]*watermark.Stage),
	}
	for _, r := range p.runners {
		p.results[r.Name()] = make(map[uint64]json.RawMessage)
		p.wmAnalyzed[r.Name()] = cfg.Watermarks.Stage("analyzed."+r.Name(), true)
		if cfg.Telemetry != nil {
			p.telRun[r.Name()] = cfg.Telemetry.Histogram("cloudgraph_analysis_run_seconds",
				"online analysis latency per completed window",
				telemetry.DurBuckets,
				telemetry.Label{Key: "analysis", Value: r.Name()})
		}
	}
	return p
}

// Timeline exposes the plane's window timeline.
func (p *Plane) Timeline() *timeline.Timeline { return p.tl }

// Runners returns the registered analysis names, sorted.
func (p *Plane) Runners() []string {
	out := make([]string, 0, len(p.runners))
	for _, r := range p.runners {
		out = append(out, r.Name())
	}
	sort.Strings(out)
	return out
}

// Consumers returns the bus subscriptions that put this plane online: the
// timeline ingest plus one consumer per analysis. Pass them to
// core.Config.Consumers (or Engine.Subscribe). Each analysis rides its
// own consumer so a slow one degrades alone under the bus's drop-oldest
// policy instead of stalling its peers.
func (p *Plane) Consumers() []core.ConsumerSpec {
	specs := []core.ConsumerSpec{{
		Name: "timeline",
		Fn: func(epoch uint64, g *graph.Graph) {
			p.tl.Append(epoch, g)
			p.wmPublished.Advance(epoch)
		},
	}}
	for _, r := range p.runners {
		r := r
		specs = append(specs, core.ConsumerSpec{
			Name: "analysis." + r.Name(),
			Fn:   func(epoch uint64, g *graph.Graph) { p.step(r, epoch, g) },
		})
	}
	return specs
}

// step runs one analysis over one window and retains its marshaled
// result under the window's epoch.
func (p *Plane) step(r Runner, epoch uint64, g *graph.Graph) {
	start := time.Now()
	r.OnSnapshot(epoch, g)
	res, err := json.Marshal(r.Result())
	d := time.Since(start)
	p.telRun[r.Name()].Observe(d.Seconds())
	if p.tracer != nil && len(g.Traces) > 0 {
		note := "window=" + g.Start.UTC().Format(time.RFC3339)
		for _, tc := range g.Traces {
			p.tracer.Record(tc, "analysis."+r.Name(), start, d, note)
		}
	}
	if err != nil {
		//lint:allow errdrop a map[string]string always marshals
		res, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	p.mu.Lock()
	name := r.Name()
	p.results[name][epoch] = res
	p.order[name] = append(p.order[name], epoch)
	if len(p.order[name]) > p.history {
		n := len(p.order[name]) - p.history
		for _, old := range p.order[name][:n] {
			delete(p.results[name], old)
		}
		p.order[name] = append([]uint64(nil), p.order[name][n:]...)
	}
	p.latest[name] = epoch
	p.mu.Unlock()
	// Advance only after the result is queryable: the analyzed watermark
	// promises "QUERY at this epoch answers", and the freshness clock
	// stops when the promise holds, not when the computation does.
	p.wmAnalyzed[name].Advance(epoch)
}

// Query returns the result of the named analysis at the given epoch (0
// means latest). The returned epoch identifies which snapshot answered,
// so "latest" responses are attributable and re-queryable. Epochs evicted
// from the in-memory retention fall through to the history store, which
// re-derives the identical bytes by replaying the recorded windows
// through a fresh runner.
func (p *Plane) Query(name string, epoch uint64) (uint64, json.RawMessage, error) {
	p.mu.RLock()
	byEpoch, ok := p.results[name]
	if !ok {
		p.mu.RUnlock()
		return 0, nil, fmt.Errorf("unknown analysis %q (have %v)", name, p.Runners())
	}
	if epoch == 0 {
		epoch, ok = p.latest[name], p.latest[name] != 0
		if !ok {
			p.mu.RUnlock()
			return 0, nil, fmt.Errorf("analysis %q has no completed window yet", name)
		}
	}
	res, ok := byEpoch[epoch]
	p.mu.RUnlock()
	if !ok {
		return p.queryDisk(name, epoch)
	}
	return epoch, res, nil
}

// Epochs returns the retained epoch range of the named analysis
// ((0,0) when it has produced nothing or is unknown).
func (p *Plane) Epochs(name string) (oldest, newest uint64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ord := p.order[name]
	if len(ord) == 0 {
		return 0, 0
	}
	return ord[0], ord[len(ord)-1]
}
