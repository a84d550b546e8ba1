// Package statusz renders the daemon's one-page operational status: the
// pipeline watermarks and freshness SLO budget from internal/watermark,
// per-consumer bus depth and drop totals, the history store's durable
// epoch range, flight-recorder trips and retained diagnostic bundles.
// It is the "is the pipeline keeping up, and if not where" view — every
// number also exists as a Prometheus series on /metrics, but /statusz
// joins them into one consistent snapshot an operator (or graphctl top)
// reads in one request.
//
// The handler serves HTML by default and the same snapshot as JSON with
// ?format=json; graphctl top and the diagnostic-bundle status.json member
// decode the JSON form (the Status type is the wire contract).
package statusz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/diag"
	"cloudgraph/internal/histstore"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
	"cloudgraph/internal/watermark"
)

// Sources wires the live components a status snapshot reads. Every field
// is optional — a nil source simply omits its section, so the handler
// works on a partially-assembled daemon (and in tests).
type Sources struct {
	// Watermarks is the pipeline's stage-progress tracker.
	Watermarks *watermark.Tracker
	// Bus is the engine's fan-out bus (per-consumer depth/drops).
	Bus *core.Bus
	// Hist is the durable history store (segment totals, epoch range).
	Hist *histstore.Store
	// Flight contributes trip counts and the recent trip events.
	Flight *trace.Flight
	// Diag lists retained diagnostic bundles.
	Diag *diag.Manager
	// Start anchors the uptime figure (zero omits it).
	Start time.Time
	// Tenants, when set, lists one source set per tenant realm — the
	// multi-plane registry. The single-plane fields above keep working
	// unchanged (a multi-tenant daemon points them at its default
	// tenant), so single-tenant callers and old JSON consumers never see
	// a difference; nil omits the tenants section like any other source.
	Tenants func() []TenantSources
}

// TenantSources is one tenant's slice of the multi-plane registry. The
// same all-nil-safe contract as Sources applies per field.
type TenantSources struct {
	Tenant     string
	Watermarks *watermark.Tracker
	Bus        *core.Bus
	Hist       *histstore.Store
	// Cost is the tenant's COGS snapshot, prepared by the caller (the
	// realm layer); statusz treats it as opaque display data.
	Cost TenantCost
}

// TenantCost mirrors the realm COGS meter without importing it (statusz
// must stay importable from the realm layer's callers).
type TenantCost struct {
	Weight          int64   `json:"weight"`
	Records         int64   `json:"records"`
	WireBytes       int64   `json:"wire_bytes"`
	GraphBytes      int64   `json:"graph_bytes"`
	IngestSeconds   float64 `json:"ingest_seconds"`
	AnalysisSeconds float64 `json:"analysis_seconds"`
	DiskBytes       int64   `json:"disk_bytes"`
	QueueDepth      int     `json:"queue_depth"`
}

// TenantStatus is one tenant's row in the Status document.
type TenantStatus struct {
	Tenant     string              `json:"tenant"`
	Watermarks *watermark.Snapshot `json:"watermarks,omitempty"`
	Bus        []core.ConsumerStat `json:"bus,omitempty"`
	Hist       *HistStatus         `json:"histstore,omitempty"`
	Cost       TenantCost          `json:"cost"`
}

// Status is the JSON document /statusz?format=json serves.
type Status struct {
	Time          time.Time           `json:"time"`
	UptimeSeconds float64             `json:"uptime_seconds,omitempty"`
	Watermarks    *watermark.Snapshot `json:"watermarks,omitempty"`
	Bus           []core.ConsumerStat `json:"bus,omitempty"`
	Hist          *HistStatus         `json:"histstore,omitempty"`
	Flight        *FlightStatus       `json:"flight,omitempty"`
	Diag          *DiagStatus         `json:"diag,omitempty"`
	Tenants       []TenantStatus      `json:"tenants,omitempty"`
}

// HistStatus summarizes the history store for the status page.
type HistStatus struct {
	Segments      int    `json:"segments"`
	Bytes         int64  `json:"bytes"`
	WindowRecords int    `json:"window_records"`
	RollupRecords int    `json:"rollup_records"`
	OldestEpoch   uint64 `json:"oldest_epoch"`
	NewestEpoch   uint64 `json:"newest_epoch"`
}

// FlightStatus summarizes the flight recorder: total trips and the most
// recent trip events still in the ring.
type FlightStatus struct {
	Trips       uint64        `json:"trips"`
	RecentTrips []trace.Event `json:"recent_trips,omitempty"`
}

// DiagStatus summarizes the diagnostic-bundle manager.
type DiagStatus struct {
	Written uint64            `json:"written"`
	Dropped uint64            `json:"dropped"`
	Bundles []diag.BundleInfo `json:"bundles,omitempty"`
}

// maxRecentTrips bounds the trip events echoed into the status page; the
// full ring stays on /flightz.
const maxRecentTrips = 10

// Collect assembles a point-in-time Status from the wired sources.
func (s Sources) Collect() Status {
	st := Status{Time: time.Now().UTC()}
	if !s.Start.IsZero() {
		st.UptimeSeconds = time.Since(s.Start).Seconds()
	}
	if s.Watermarks != nil {
		snap := s.Watermarks.Snapshot()
		st.Watermarks = &snap
	}
	if s.Bus != nil {
		st.Bus = s.Bus.Stats()
	}
	if s.Hist != nil {
		st.Hist = histStatus(s.Hist)
	}
	if s.Tenants != nil {
		for _, ts := range s.Tenants() {
			row := TenantStatus{Tenant: ts.Tenant, Cost: ts.Cost}
			if ts.Watermarks != nil {
				snap := ts.Watermarks.Snapshot()
				row.Watermarks = &snap
			}
			if ts.Bus != nil {
				row.Bus = ts.Bus.Stats()
			}
			if ts.Hist != nil {
				row.Hist = histStatus(ts.Hist)
			}
			st.Tenants = append(st.Tenants, row)
		}
	}
	if s.Flight != nil {
		fs := &FlightStatus{Trips: s.Flight.Trips()}
		evs := s.Flight.Snapshot()
		for i := len(evs) - 1; i >= 0 && len(fs.RecentTrips) < maxRecentTrips; i-- {
			if evs[i].Kind == "trip" {
				fs.RecentTrips = append(fs.RecentTrips, evs[i])
			}
		}
		st.Flight = fs
	}
	if s.Diag != nil {
		w, d := s.Diag.Stats()
		st.Diag = &DiagStatus{Written: w, Dropped: d, Bundles: s.Diag.Bundles()}
	}
	return st
}

// histStatus summarizes one history store for the status page.
func histStatus(h *histstore.Store) *HistStatus {
	hs := h.Stats()
	out := &HistStatus{
		Segments:      hs.Segments,
		Bytes:         hs.Bytes,
		WindowRecords: hs.WindowRecords,
		RollupRecords: hs.RollupRecords,
	}
	if lo, hi, ok := h.WindowEpochs(); ok {
		out.OldestEpoch, out.NewestEpoch = lo, hi
	}
	return out
}

// JSON returns the status snapshot as a JSON document — the diagnostic
// bundle's status.json source.
func (s Sources) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Collect()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Handler serves the status page: HTML by default, the Status JSON with
// ?format=json. Method gating is the registrar's job (telemetry.GetOnly),
// matching the rest of the ops views.
func Handler(s Sources) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := s.Collect()
		if r.URL.Query().Get("format") == "json" {
			telemetry.WriteJSON(w, st)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := page.Execute(w, pageData(st)); err != nil {
			return // client went away mid-response
		}
	})
}

// pageModel adapts Status for the HTML template: durations pre-formatted,
// budget classified for styling.
type pageModel struct {
	Status
	Uptime      string
	Target      string
	BudgetPct   string
	BudgetClass string
	SealedAge   string
}

func pageData(st Status) pageModel {
	m := pageModel{Status: st}
	if st.UptimeSeconds > 0 {
		m.Uptime = time.Duration(st.UptimeSeconds * float64(time.Second)).Round(time.Second).String()
	}
	if wm := st.Watermarks; wm != nil {
		if wm.Target > 0 {
			m.Target = wm.Target.String()
		}
		m.BudgetPct = fmt.Sprintf("%.1f%%", wm.BudgetRemaining*100)
		switch {
		case wm.BudgetRemaining <= 0:
			m.BudgetClass = "bad"
		case wm.BudgetRemaining < 0.5:
			m.BudgetClass = "warn"
		default:
			m.BudgetClass = "ok"
		}
		if !wm.SealedAt.IsZero() {
			m.SealedAge = time.Since(wm.SealedAt).Round(time.Millisecond).String()
		}
	}
	return m
}

var page = template.Must(template.New("statusz").Funcs(template.FuncMap{
	"secs": func(v float64) string {
		return (time.Duration(v * float64(time.Second))).Round(time.Millisecond).String()
	},
	"bytes": func(v int64) string {
		const unit = 1024
		if v < unit {
			return fmt.Sprintf("%d B", v)
		}
		div, exp := int64(unit), 0
		for n := v / unit; n >= unit; n /= unit {
			div *= unit
			exp++
		}
		return fmt.Sprintf("%.1f %ciB", float64(v)/float64(div), "KMGTPE"[exp])
	},
	"utc": func(t time.Time) string {
		if t.IsZero() {
			return "—"
		}
		return t.UTC().Format("15:04:05.000")
	},
	"pct": func(v float64) float64 { return v * 100 },
}).Parse(`<!doctype html>
<html><head><title>cloudgraph /statusz</title><style>
body { font: 14px/1.4 monospace; margin: 2em; color: #222; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #ccc; padding: 2px 10px; text-align: right; }
th { background: #f2f2f2; }
td:first-child, th:first-child { text-align: left; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-bottom: 0; }
.ok { color: #080; } .warn { color: #b60; } .bad { color: #c00; font-weight: bold; }
.meta { color: #666; }
</style></head><body>
<h1>cloudgraph /statusz</h1>
<p class="meta">{{.Time.Format "2006-01-02T15:04:05Z"}}{{if .Uptime}} · up {{.Uptime}}{{end}} · <a href="/statusz?format=json">json</a> · <a href="/metrics">metrics</a> · <a href="/flightz">flightz</a> · <a href="/tracez">tracez</a> · <a href="/analyz">analyz</a></p>

{{with .Watermarks}}
<h2>watermarks</h2>
<p class="meta">ingested epoch {{.Ingested}} · sealed epoch {{.Sealed}}{{with $.SealedAge}} ({{.}} ago){{end}} · {{.Windows}} windows sealed{{with $.Target}} · freshness target {{.}}{{end}} · SLO budget <span class="{{$.BudgetClass}}">{{$.BudgetPct}}</span></p>
<table>
<tr><th>stage</th><th>epoch</th><th>lag</th><th>staleness</th><th>slo</th><th>burned</th><th>consecutive</th><th>trips</th><th>last advance</th></tr>
{{range .Stages}}<tr><td>{{.Name}}</td><td>{{.Epoch}}</td><td{{if gt .Lag 1}} class="warn"{{end}}>{{.Lag}}</td><td>{{secs .StalenessSeconds}}</td><td>{{if .SLO}}yes{{else}}–{{end}}</td><td{{if gt .Burned 0}} class="warn"{{end}}>{{.Burned}}</td><td{{if gt .Consecutive 0}} class="warn"{{end}}>{{.Consecutive}}</td><td{{if gt .Trips 0}} class="bad"{{end}}>{{.Trips}}</td><td>{{utc .LastAdvance}}</td></tr>
{{end}}</table>
{{end}}

{{with .Bus}}
<h2>bus consumers</h2>
<table>
<tr><th>consumer</th><th>depth</th><th>capacity</th><th>delivered</th><th>dropped</th></tr>
{{range .}}<tr><td>{{.Name}}</td><td{{if gt .Depth 0}} class="warn"{{end}}>{{.Depth}}</td><td>{{.Capacity}}</td><td>{{.Delivered}}</td><td{{if gt .Dropped 0}} class="bad"{{end}}>{{.Dropped}}</td></tr>
{{end}}</table>
{{end}}

{{with .Hist}}
<h2>history store</h2>
<p class="meta">epochs {{.OldestEpoch}}–{{.NewestEpoch}} · {{.Segments}} segments · {{bytes .Bytes}} · {{.WindowRecords}} window + {{.RollupRecords}} rollup records</p>
{{end}}

{{with .Tenants}}
<h2>tenants</h2>
<table>
<tr><th>tenant</th><th>weight</th><th>records</th><th>graph</th><th>disk</th><th>ingest</th><th>analysis</th><th>queue</th><th>sealed</th><th>budget</th></tr>
{{range .}}<tr><td>{{.Tenant}}</td><td>{{.Cost.Weight}}</td><td>{{.Cost.Records}}</td><td>{{bytes .Cost.GraphBytes}}</td><td>{{bytes .Cost.DiskBytes}}</td><td>{{secs .Cost.IngestSeconds}}</td><td>{{secs .Cost.AnalysisSeconds}}</td><td{{if gt .Cost.QueueDepth 0}} class="warn"{{end}}>{{.Cost.QueueDepth}}</td><td>{{with .Watermarks}}{{.Sealed}}{{else}}–{{end}}</td><td>{{with .Watermarks}}{{printf "%.0f%%" (pct .BudgetRemaining)}}{{else}}–{{end}}</td></tr>
{{end}}</table>
{{end}}

{{with .Flight}}
<h2>flight recorder</h2>
<p class="meta">{{.Trips}} trips</p>
{{if .RecentTrips}}<table>
<tr><th>time</th><th>component</th><th>reason</th></tr>
{{range .RecentTrips}}<tr><td>{{utc .Time}}</td><td>{{.Component}}</td><td style="text-align:left">{{.Msg}}</td></tr>
{{end}}</table>{{end}}
{{end}}

{{with .Diag}}
<h2>diagnostic bundles</h2>
<p class="meta">{{.Written}} written · {{.Dropped}} suppressed</p>
{{if .Bundles}}<table>
<tr><th>bundle</th><th>time</th><th>reason</th><th>size</th></tr>
{{range .Bundles}}<tr><td style="text-align:left">{{.Name}}</td><td>{{utc .Time}}</td><td style="text-align:left">{{.Reason}}</td><td>{{bytes .Bytes}}</td></tr>
{{end}}</table>{{end}}
{{end}}

</body></html>
`))
