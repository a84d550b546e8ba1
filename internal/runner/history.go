package runner

import (
	"encoding/json"
	"fmt"
	"time"

	"cloudgraph/internal/graph"
)

// HistorySource is the durable window history behind the plane —
// histstore.Store satisfies it. Epochs older than the in-memory result
// retention fall through to it: the plane replays the recorded windows
// through a fresh runner and re-derives the result, which is byte-equal
// to the online answer because both paths execute the identical runner
// over the identical window sequence (the same property the online/batch
// equivalence test pins).
type HistorySource interface {
	// WindowEpochs returns the epoch range replayable at window
	// resolution.
	WindowEpochs() (lo, hi uint64, ok bool)
	// EpochAt resolves a wall-clock instant to the epoch recorded for it.
	EpochAt(t time.Time) (uint64, bool)
	// ReplayUpTo streams window records with epoch <= limit, in epoch
	// order.
	ReplayUpTo(limit uint64, fn func(epoch uint64, g *graph.Graph) error) error
}

// SetHistory attaches the durable history store and a factory minting
// fresh runner instances for disk-backed queries (nil uses
// DefaultRunners). Call at wiring time, before queries arrive. Online
// runners cannot serve past epochs — they have advanced — so each disk
// query replays history through its own throwaway instance.
func (p *Plane) SetHistory(h HistorySource, factory func() []Runner) {
	if factory == nil {
		factory = DefaultRunners
	}
	p.mu.Lock()
	p.hist = h
	p.histRunners = factory
	p.mu.Unlock()
}

// History returns the attached history source (nil when the plane is
// memory-only).
func (p *Plane) History() HistorySource {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.hist
}

// Restore replays one recovered window into the plane synchronously:
// timeline append plus every runner's step, exactly what the bus
// consumers would have done online. Call it from the startup recovery
// loop, before the engine starts publishing.
func (p *Plane) Restore(epoch uint64, g *graph.Graph) {
	p.tl.Append(epoch, g)
	for _, r := range p.runners {
		p.step(r, epoch, g)
	}
}

// ResolveTime maps a wall-clock instant to the epoch that covers it,
// preferring the in-memory timeline and falling back to the history
// index.
func (p *Plane) ResolveTime(t time.Time) (uint64, bool) {
	if ep, ok := p.tl.EpochAt(t); ok {
		return ep, true
	}
	p.mu.RLock()
	h := p.hist
	p.mu.RUnlock()
	if h == nil {
		return 0, false
	}
	return h.EpochAt(t)
}

// queryDisk re-derives the named analysis's result at epoch by replaying
// the durable history through a fresh runner and asking it for one Result,
// after the last window: under the Runner contract the earlier windows
// cost only their state updates. Called on an in-memory miss; holds no
// plane lock while replaying.
func (p *Plane) queryDisk(name string, epoch uint64) (uint64, json.RawMessage, error) {
	p.mu.RLock()
	h, factory := p.hist, p.histRunners
	p.mu.RUnlock()
	if h == nil {
		return 0, nil, fmt.Errorf("analysis %q has no result at epoch %d and no history store is attached", name, epoch)
	}
	lo, hi, ok := h.WindowEpochs()
	if !ok || epoch < lo || epoch > hi {
		return 0, nil, fmt.Errorf("analysis %q has no result at epoch %d (history holds %d..%d)", name, epoch, lo, hi)
	}
	var r Runner
	for _, cand := range factory() {
		if cand.Name() == name {
			r = cand
			break
		}
	}
	if r == nil {
		return 0, nil, fmt.Errorf("analysis %q cannot replay from history (no such runner)", name)
	}
	var last uint64
	if err := h.ReplayUpTo(epoch, func(ep uint64, g *graph.Graph) error {
		r.OnSnapshot(ep, g)
		last = ep
		return nil
	}); err != nil {
		return 0, nil, fmt.Errorf("history replay: %w", err)
	}
	if last != epoch {
		return 0, nil, fmt.Errorf("analysis %q has no window at epoch %d (nearest replayed %d)", name, epoch, last)
	}
	res, err := json.Marshal(r.Result())
	if err != nil {
		return 0, nil, fmt.Errorf("history result: %w", err)
	}
	return epoch, res, nil
}
