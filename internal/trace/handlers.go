package trace

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"cloudgraph/internal/telemetry"
)

// The ops-endpoint views. Both set an explicit Content-Type; the GET/HEAD
// method gate is the registrar's job (telemetry.OpsServer.HandleView).

// tracezTrace is the JSON shape of one trace in the /tracez list.
type tracezTrace struct {
	TraceID string `json:"trace_id"`
	Spans   []Span `json:"spans"`
}

// TracezHandler serves the span recorder: with no query, the list of
// retained traces (one line per trace: id, span count, stage path); with
// ?trace=<hex id>, that trace's waterfall. ?format=json switches either
// view to a JSON document.
func TracezHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		wantJSON := r.URL.Query().Get("format") == "json"
		if idStr := r.URL.Query().Get("trace"); idStr != "" {
			id, err := strconv.ParseUint(strings.TrimPrefix(idStr, "0x"), 16, 64)
			if err != nil {
				http.Error(w, "trace must be a hex trace ID", http.StatusBadRequest)
				return
			}
			spans := rec.Trace(id)
			if len(spans) == 0 {
				http.Error(w, "unknown trace", http.StatusNotFound)
				return
			}
			if wantJSON {
				telemetry.WriteJSON(w, tracezTrace{TraceID: fmt.Sprintf("%016x", id), Spans: spans})
				return
			}
			writeText(w, waterfall(id, spans))
			return
		}
		ids := rec.TraceIDs()
		if wantJSON {
			out := make([]tracezTrace, 0, len(ids))
			for _, id := range ids {
				out = append(out, tracezTrace{TraceID: fmt.Sprintf("%016x", id), Spans: rec.Trace(id)})
			}
			telemetry.WriteJSON(w, out)
			return
		}
		var buf bytes.Buffer
		recorded, dropped, evicted := rec.Stats()
		fmt.Fprintf(&buf, "%d traces retained (%d spans recorded, %d dropped, %d traces evicted)\n",
			len(ids), recorded, dropped, evicted)
		for _, id := range ids {
			spans := rec.Trace(id)
			stages := make([]string, len(spans))
			for i, sp := range spans {
				stages[i] = sp.Stage
			}
			fmt.Fprintf(&buf, "%016x  %2d spans  %s\n", id, len(spans), strings.Join(stages, " -> "))
		}
		writeText(w, buf.Bytes())
	})
}

// waterfall renders one trace as a text waterfall: spans in start order
// with offsets from the first span.
func waterfall(id uint64, spans []Span) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "trace %016x — %d spans\n", id, len(spans))
	t0 := spans[0].Start
	for _, sp := range spans {
		note := ""
		if sp.Note != "" {
			note = "  " + sp.Note
		}
		fmt.Fprintf(&buf, "%12s +%-12s %-16s dur=%-12s%s\n",
			sp.Start.UTC().Format("15:04:05.000"), sp.Start.Sub(t0), sp.Stage, sp.Dur, note)
	}
	return buf.Bytes()
}

// WriteWaterfalls renders every retained trace as a text waterfall, oldest
// first — the "recent trace waterfalls" member of a diagnostic bundle, and
// the same rendering /tracez serves per trace. A nil recorder writes a
// placeholder line.
func WriteWaterfalls(w io.Writer, rec *Recorder) error {
	if rec == nil {
		_, err := io.WriteString(w, "tracing disabled\n")
		return err
	}
	ids := rec.TraceIDs()
	if _, err := fmt.Fprintf(w, "%d traces retained\n", len(ids)); err != nil {
		return err
	}
	for _, id := range ids {
		spans := rec.Trace(id)
		if len(spans) == 0 {
			continue
		}
		if _, err := w.Write(waterfall(id, spans)); err != nil {
			return err
		}
	}
	return nil
}

// writeText emits one text/plain document.
func writeText(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := w.Write(body); err != nil {
		return // client went away mid-response
	}
}

// FlightzHandler serves the flight recorder ring: the text dump by
// default, ?format=json for the raw entries.
func FlightzHandler(f *Flight) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			telemetry.WriteJSON(w, f.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := f.Dump(w); err != nil {
			return // scraper went away mid-dump; nothing to clean up
		}
	})
}
