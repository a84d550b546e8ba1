package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The harness's own span recorder: spans around every client call (and,
// in the layers pass, every layer call), kept in memory and written out
// when the run ends. Daemon-internal tracing (-trace-sample) stays off;
// joining these spans to in-program spans is a later issue.

// span is one recorded interval. Parent is the index of the span that
// caused it (-1 for a root); ID groups the spans of one window or query.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ID      uint64 `json:"id"`
}

// recorder collects spans from the loader's goroutines. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// noSpan is the parent of a root span and the handle a nil recorder
// returns.
const noSpan = -1

// begin opens a span and returns its handle.
func (r *recorder) begin(name string, parent int, id uint64) int {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, StartNS: now, Parent: parent, ID: id})
	h := len(r.spans) - 1
	r.mu.Unlock()
	return h
}

// end closes a span opened by begin.
func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[h].EndNS = now
	r.mu.Unlock()
}

// count is how many spans were recorded.
func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// spanSummary is one row of the per-name roll-up written beside the raw
// spans: a layer's self time is its spans' duration minus the part their
// children cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize rolls spans up by name. Children of one parent never overlap
// here (each goroutine nests its own calls), so child coverage is the sum
// of child durations clipped to the parent.
func summarizeSpans(spans []span) []spanSummary {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.EndNS == 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.StartNS, p.StartNS), s.EndNS
		if p.EndNS != 0 {
			hi = min(hi, p.EndNS)
		}
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	byName := make(map[string]*spanSummary)
	for i, s := range spans {
		if s.EndNS == 0 {
			continue // left open by an aborted run
		}
		row := byName[s.Name]
		if row == nil {
			row = &spanSummary{Name: s.Name}
			byName[s.Name] = row
		}
		d := s.EndNS - s.StartNS
		row.Count++
		row.TotalMS += float64(d) / 1e6
		row.SelfMS += float64(max(d-covered[i], 0)) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, row := range byName {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write dumps the spans and their roll-up as one JSON document.
func (r *recorder) write(path string, env envInfo, workload string) error {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	doc := struct {
		Env      envInfo       `json:"env"`
		Workload string        `json:"workload"`
		Summary  []spanSummary `json:"self_time_by_name"`
		Spans    []span        `json:"spans"`
	}{env, workload, summarizeSpans(spans), spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
