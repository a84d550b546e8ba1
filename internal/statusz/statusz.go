// Package statusz renders the daemon's one-page operational status: one
// row per tenant plane — its COGS meter, pipeline watermarks and
// freshness SLO budget from internal/watermark, per-consumer bus depth
// and drop totals, the history store's durable epoch range — beside the
// shared scheduler, flight-recorder trips and retained diagnostic
// bundles. It is the "is the pipeline keeping up, and if not where"
// view — every number also exists as a Prometheus series on /metrics,
// but /statusz joins them into one consistent snapshot an operator (or
// graphctl top) reads in one request.
//
// The handler serves HTML by default and the same snapshot as JSON with
// ?format=json; graphctl top, the benchmark and the diagnostic-bundle
// status.json member decode the JSON form (the Status type is the wire
// contract).
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
	"cloudgraph/internal/realm"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
	"cloudgraph/internal/watermark"
)

// Sources wires the live components a status snapshot reads. Every field
// is optional — a nil source simply omits its section, so the handler
// works on a partially-assembled daemon (and in tests).
type Sources struct {
	// Tenants lists one row source per tenant plane, in display order.
	Tenants func() []TenantSources
	// Scheduler is the weighted-fair gate the tenant planes share.
	Scheduler *realm.Scheduler
	// Flight contributes trip counts and the recent trip events.
	Flight *trace.Flight
	// Diag lists retained diagnostic bundles.
	Diag *diag.Manager
	// Start anchors the uptime figure (zero omits it).
	Start time.Time
}

// TenantSources is one tenant plane's row source. Each nil pointer omits
// its part of the row, so a bare engine fills one from its watermark
// tracker and bus.
type TenantSources struct {
	// Cost is the tenant's COGS snapshot; Cost.Tenant names the row.
	Cost realm.Cost
	// Recovered counts the windows startup replayed for the tenant.
	Recovered  int
	Watermarks *watermark.Tracker
	Bus        *core.Bus
	Hist       *histstore.Store
}

// TenantStatus is one tenant's row in the Status document: the COGS
// snapshot (flat in JSON), the progress figures an operator triages by,
// and the watermark, bus and history sections they were derived from.
// SealedEpoch and BudgetRemaining come from the row's own Watermarks.
type TenantStatus struct {
	realm.Cost
	SealedEpoch     uint64  `json:"sealed_epoch"`
	BudgetRemaining float64 `json:"budget_remaining"`
	// LagWindows and StalenessSec are the worst stage's; BurnedWindows
	// sums every stage's SLO burns.
	LagWindows      uint64              `json:"lag_windows"`
	StalenessSec    float64             `json:"staleness_seconds"`
	BurnedWindows   uint64              `json:"burned_windows"`
	RecoveredEpochs int                 `json:"recovered_epochs"`
	Watermarks      *watermark.Snapshot `json:"watermarks,omitempty"`
	Bus             []core.ConsumerStat `json:"bus,omitempty"`
	Hist            *HistStatus         `json:"histstore,omitempty"`
}

// Status is the JSON document /statusz?format=json serves.
type Status struct {
	Time          time.Time      `json:"time"`
	UptimeSeconds float64        `json:"uptime_seconds,omitempty"`
	Tenants       []TenantStatus `json:"tenants,omitempty"`
	Scheduler     *SchedStatus   `json:"scheduler,omitempty"`
	Flight        *FlightStatus  `json:"flight,omitempty"`
	Diag          *DiagStatus    `json:"diag,omitempty"`
}

// SchedStatus summarizes the weighted-fair scheduler: its slot count and
// each tenant queue's weight, depth and lifetime grants.
type SchedStatus struct {
	Slots  int               `json:"slots"`
	Queues []realm.QueueStat `json:"queues"`
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
	if s.Tenants != nil {
		for _, ts := range s.Tenants() {
			st.Tenants = append(st.Tenants, tenantStatus(ts))
		}
	}
	if s.Scheduler != nil {
		st.Scheduler = &SchedStatus{Slots: s.Scheduler.Slots(), Queues: s.Scheduler.Stats()}
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

// tenantStatus builds one tenant's row. A nil tracker snapshots as an
// untouched budget, so a row without watermarks reads sealed 0, budget 1.
func tenantStatus(ts TenantSources) TenantStatus {
	snap := ts.Watermarks.Snapshot()
	row := TenantStatus{
		Cost:            ts.Cost,
		SealedEpoch:     snap.Sealed,
		BudgetRemaining: snap.BudgetRemaining,
		RecoveredEpochs: ts.Recovered,
	}
	for _, st := range snap.Stages {
		row.LagWindows = max(row.LagWindows, st.Lag)
		row.StalenessSec = max(row.StalenessSec, st.StalenessSeconds)
		row.BurnedWindows += st.Burned
	}
	if ts.Watermarks != nil {
		row.Watermarks = &snap
	}
	if ts.Bus != nil {
		row.Bus = ts.Bus.Stats()
	}
	if ts.Hist != nil {
		row.Hist = histStatus(ts.Hist)
	}
	return row
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
// ?format=json. Method gating is the registrar's job (OpsServer.HandleView
// wraps every ops view in the same GET/HEAD contract).
func Handler(s Sources) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := s.Collect()
		if r.URL.Query().Get("format") == "json" {
			telemetry.WriteJSON(w, st)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := page.Execute(w, st); err != nil {
			return // client went away mid-response
		}
	})
}

// HumanBytes renders a byte count with a binary unit suffix — the one
// byte formatter behind the status page and graphctl top.
func HumanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

var page = template.Must(template.New("statusz").Funcs(template.FuncMap{
	"secs": func(v float64) string {
		return (time.Duration(v * float64(time.Second))).Round(time.Millisecond).String()
	},
	"uptime": func(v float64) string {
		return (time.Duration(v * float64(time.Second))).Round(time.Second).String()
	},
	"ago": func(t time.Time) string {
		return time.Since(t).Round(time.Millisecond).String()
	},
	"bytes": HumanBytes,
	"utc": func(t time.Time) string {
		if t.IsZero() {
			return "—"
		}
		return t.UTC().Format("15:04:05.000")
	},
	"pct": func(v float64) float64 { return v * 100 },
	"budgetClass": func(v float64) string {
		switch {
		case v <= 0:
			return "bad"
		case v < 0.5:
			return "warn"
		}
		return "ok"
	},
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
<p class="meta">{{.Time.Format "2006-01-02T15:04:05Z"}}{{if .UptimeSeconds}} · up {{uptime .UptimeSeconds}}{{end}} · <a href="/statusz?format=json">json</a> · <a href="/metrics">metrics</a> · <a href="/flightz">flightz</a> · <a href="/tracez">tracez</a> · <a href="/analyz">analyz</a></p>

{{with .Tenants}}
<h2>tenants</h2>
<table>
<tr><th>tenant</th><th>weight</th><th>records</th><th>wire</th><th>graph</th><th>disk</th><th>ingest</th><th>analysis</th><th>queue</th><th>sealed</th><th>lag</th><th>burned</th><th>recovered</th><th>budget</th></tr>
{{range .}}<tr><td>{{.Tenant}}</td><td>{{.Weight}}</td><td>{{.Records}}</td><td>{{bytes .WireBytes}}</td><td>{{bytes .GraphBytes}}</td><td>{{bytes .DiskBytes}}</td><td>{{secs .IngestSeconds}}</td><td>{{secs .AnalysisSeconds}}</td><td{{if gt .QueueDepth 0}} class="warn"{{end}}>{{.QueueDepth}}</td><td>{{.SealedEpoch}}</td><td{{if gt .LagWindows 1}} class="warn"{{end}}>{{.LagWindows}}</td><td{{if gt .BurnedWindows 0}} class="bad"{{end}}>{{.BurnedWindows}}</td><td>{{.RecoveredEpochs}}</td><td class="{{budgetClass .BudgetRemaining}}">{{printf "%.0f%%" (pct .BudgetRemaining)}}</td></tr>
{{end}}</table>
{{end}}

{{range $t := .Tenants}}
{{with .Watermarks}}
<h2>{{$t.Tenant}} watermarks</h2>
<p class="meta">ingested epoch {{.Ingested}} · sealed epoch {{.Sealed}}{{if not .SealedAt.IsZero}} ({{ago .SealedAt}} ago){{end}} · {{.Windows}} windows sealed{{if .Target}} · freshness target {{.Target}}{{end}} · SLO budget <span class="{{budgetClass .BudgetRemaining}}">{{printf "%.1f%%" (pct .BudgetRemaining)}}</span></p>
<table>
<tr><th>stage</th><th>epoch</th><th>lag</th><th>staleness</th><th>slo</th><th>burned</th><th>consecutive</th><th>trips</th><th>last advance</th></tr>
{{range .Stages}}<tr><td>{{.Name}}</td><td>{{.Epoch}}</td><td{{if gt .Lag 1}} class="warn"{{end}}>{{.Lag}}</td><td>{{secs .StalenessSeconds}}</td><td>{{if .SLO}}yes{{else}}–{{end}}</td><td{{if gt .Burned 0}} class="warn"{{end}}>{{.Burned}}</td><td{{if gt .Consecutive 0}} class="warn"{{end}}>{{.Consecutive}}</td><td{{if gt .Trips 0}} class="bad"{{end}}>{{.Trips}}</td><td>{{utc .LastAdvance}}</td></tr>
{{end}}</table>
{{end}}

{{with .Bus}}
<h2>{{$t.Tenant}} bus consumers</h2>
<table>
<tr><th>consumer</th><th>depth</th><th>capacity</th><th>delivered</th><th>dropped</th></tr>
{{range .}}<tr><td>{{.Name}}</td><td{{if gt .Depth 0}} class="warn"{{end}}>{{.Depth}}</td><td>{{.Capacity}}</td><td>{{.Delivered}}</td><td{{if gt .Dropped 0}} class="bad"{{end}}>{{.Dropped}}</td></tr>
{{end}}</table>
{{end}}

{{with .Hist}}
<h2>{{$t.Tenant}} history store</h2>
<p class="meta">epochs {{.OldestEpoch}}–{{.NewestEpoch}} · {{.Segments}} segments · {{bytes .Bytes}} · {{.WindowRecords}} window + {{.RollupRecords}} rollup records</p>
{{end}}
{{end}}

{{with .Scheduler}}
<h2>scheduler</h2>
<p class="meta">{{.Slots}} slots</p>
<table>
<tr><th>tenant</th><th>weight</th><th>depth</th><th>granted</th></tr>
{{range .Queues}}<tr><td>{{.Tenant}}</td><td>{{.Weight}}</td><td{{if gt .Depth 0}} class="warn"{{end}}>{{.Depth}}</td><td>{{.Granted}}</td></tr>
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
