package realm

import (
	"fmt"
	"html/template"
	"net/http"
	"time"

	"cloudgraph/internal/telemetry"
)

// tenantzRow is one tenant's line in the /tenantz view: its COGS
// snapshot plus the pipeline-progress fields an operator triages by.
type tenantzRow struct {
	Cost
	LagWindows      uint64  `json:"lag_windows"`
	StalenessSec    float64 `json:"staleness_seconds"`
	BurnedWindows   uint64  `json:"burned_windows"`
	RecoveredEpochs int     `json:"recovered_epochs"`
}

type tenantzPage struct {
	Time    time.Time    `json:"time"`
	Workers int          `json:"workers"`
	Sched   []QueueStat  `json:"scheduler"`
	Tenants []tenantzRow `json:"tenants"`
}

func (m *Manager) tenantzSnapshot() tenantzPage {
	page := tenantzPage{
		Time:    time.Now().UTC(),
		Workers: m.cfg.Workers,
		Sched:   m.sched.Stats(),
	}
	for _, r := range m.Realms() {
		row := tenantzRow{Cost: r.Cost(), RecoveredEpochs: r.recovered}
		snap := r.wm.Snapshot()
		for _, st := range snap.Stages {
			if st.Lag > row.LagWindows {
				row.LagWindows = st.Lag
			}
			if st.StalenessSeconds > row.StalenessSec {
				row.StalenessSec = st.StalenessSeconds
			}
			row.BurnedWindows += st.Burned
		}
		page.Tenants = append(page.Tenants, row)
	}
	return page
}

var tenantzTmpl = template.Must(template.New("tenantz").Funcs(template.FuncMap{
	"bytes": humanBytes,
	"secs":  func(s float64) string { return fmt.Sprintf("%.2fs", s) },
	"mulf":  func(a, b float64) float64 { return a * b },
}).Parse(`<!DOCTYPE html>
<html><head><title>cloudgraph tenants</title><style>
body { font-family: monospace; margin: 2em; background: #fafafa; }
table { border-collapse: collapse; margin-bottom: 2em; }
th, td { border: 1px solid #ccc; padding: 4px 10px; text-align: right; }
th { background: #eee; }
td.name { text-align: left; }
.bad { color: #b00; font-weight: bold; }
</style></head><body>
<h1>tenants</h1>
<p>{{.Time.Format "2006-01-02T15:04:05Z"}} &middot; {{.Workers}} scheduler workers &middot; <a href="/tenantz?format=json">json</a></p>
<h2>realms</h2>
<table>
<tr><th>tenant</th><th>weight</th><th>records</th><th>wire</th><th>graph</th><th>disk</th><th>ingest</th><th>analysis</th><th>queue</th><th>sealed</th><th>lag</th><th>burned</th><th>budget</th></tr>
{{range .Tenants}}<tr>
<td class="name">{{.Tenant}}</td><td>{{.Weight}}</td><td>{{.Records}}</td>
<td>{{bytes .WireBytes}}</td><td>{{bytes .GraphBytes}}</td><td>{{bytes .DiskBytes}}</td>
<td>{{secs .IngestSeconds}}</td><td>{{secs .AnalysisSeconds}}</td>
<td>{{.QueueDepth}}</td><td>{{.SealedEpoch}}</td><td>{{.LagWindows}}</td>
<td{{if .BurnedWindows}} class="bad"{{end}}>{{.BurnedWindows}}</td>
<td{{if lt .BudgetRemaining 0.5}} class="bad"{{end}}>{{printf "%.0f%%" (mulf .BudgetRemaining 100)}}</td>
</tr>{{end}}
</table>
<h2>scheduler</h2>
<table>
<tr><th>tenant</th><th>weight</th><th>depth</th><th>granted</th></tr>
{{range .Sched}}<tr><td class="name">{{.Tenant}}</td><td>{{.Weight}}</td><td>{{.Depth}}</td><td>{{.Granted}}</td></tr>{{end}}
</table>
</body></html>
`))

func humanBytes(n int64) string {
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

// TenantzHandler serves the per-tenant COGS and scheduler view, HTML by
// default and machine-readable with ?format=json.
func TenantzHandler(m *Manager) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		page := m.tenantzSnapshot()
		if req.URL.Query().Get("format") == "json" {
			telemetry.WriteJSON(w, page)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := tenantzTmpl.Execute(w, page); err != nil {
			return // client went away mid-response
		}
	})
}
