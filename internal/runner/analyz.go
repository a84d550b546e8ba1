package runner

import (
	"encoding/json"
	"net/http"
	"strconv"

	"cloudgraph/internal/telemetry"
)

// analyzIndex is the /analyz overview: which analyses are online and what
// epoch range each retains.
type analyzIndex struct {
	Analyses []analyzEntry `json:"analyses"`
	// TimelineOldest/Newest are the timeline's retained epoch range.
	TimelineOldest uint64 `json:"timeline_oldest"`
	TimelineNewest uint64 `json:"timeline_newest"`
	// HistoryOldest/Newest are the durable store's replayable window
	// epoch range; epochs in it but outside the in-memory retention are
	// served from disk. Both 0 when no history store is attached.
	HistoryOldest uint64 `json:"history_oldest"`
	HistoryNewest uint64 `json:"history_newest"`
}

type analyzEntry struct {
	Name   string `json:"name"`
	Oldest uint64 `json:"oldest"`
	Newest uint64 `json:"newest"`
}

// AnalyzHandler serves the plane over the ops endpoint: GET /analyz lists
// the online analyses and their retained epoch ranges; ?analysis=<name>
// returns that analysis's latest result; &epoch=<n> pins a specific
// epoch.
func (p *Plane) AnalyzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name := req.URL.Query().Get("analysis")
		if name == "" {
			idx := analyzIndex{}
			idx.TimelineOldest, idx.TimelineNewest = p.tl.Epochs()
			if h := p.History(); h != nil {
				if lo, hi, ok := h.WindowEpochs(); ok {
					idx.HistoryOldest, idx.HistoryNewest = lo, hi
				}
			}
			for _, n := range p.Runners() {
				e := analyzEntry{Name: n}
				e.Oldest, e.Newest = p.Epochs(n)
				idx.Analyses = append(idx.Analyses, e)
			}
			telemetry.WriteJSON(w, idx)
			return
		}
		var epoch uint64
		if v := req.URL.Query().Get("epoch"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				http.Error(w, "epoch must be a positive integer", http.StatusBadRequest)
				return
			}
			epoch = n
		}
		at, res, err := p.Query(name, epoch)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		telemetry.WriteJSON(w, struct {
			Analysis string          `json:"analysis"`
			Epoch    uint64          `json:"epoch"`
			Result   json.RawMessage `json:"result"`
		}{Analysis: name, Epoch: at, Result: res})
	})
}
