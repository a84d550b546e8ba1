package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/statusz"
	"cloudgraph/internal/watermark"
)

// getJSON fetches url and returns its body, failing on a non-200 answer.
func getJSON(t *testing.T, url string) []byte {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s = %d", url, resp.StatusCode)
	}
	return body
}

// getStatus fetches /statusz?format=json from a daemon's ops endpoint and
// returns the default tenant's row.
func getStatus(t *testing.T, opsAddr string) statusz.TenantStatus {
	t.Helper()
	var st statusz.Status
	if err := json.Unmarshal(getJSON(t, "http://"+opsAddr+"/statusz?format=json"), &st); err != nil {
		t.Fatalf("decoding /statusz: %v", err)
	}
	for _, row := range st.Tenants {
		if row.Tenant == realm.DefaultTenant {
			return row
		}
	}
	t.Fatalf("/statusz has no %s row: %+v", realm.DefaultTenant, st.Tenants)
	return statusz.TenantStatus{}
}

// TestStatuszTenantRows pins /statusz as the one status document: a
// two-tenant manager, wired as cloudgraphd wires it and served on both
// routes the daemon mounts it on, yields exactly one row per tenant whose
// flat COGS and progress fields match realm.Cost and the tenant's own
// watermark snapshot; the scheduler section lists both tenants, and no
// tenant's sections repeat at the top level.
func TestStatuszTenantRows(t *testing.T) {
	const workers = 3
	m, err := realm.NewManager(realm.Config{
		Engine:    core.Config{Window: time.Minute, Shards: 2},
		Retention: 8,
		Watermark: watermark.Config{FreshnessTarget: time.Hour},
		DataDir:   t.TempDir(),
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// The two tenants get different volumes and window counts, so a row
	// that read the other tenant's plane cannot pass.
	minutes := map[string]int{realm.DefaultTenant: 2, "acme": 5}
	for name, n := range minutes {
		r, err := m.Realm(name)
		if err != nil {
			t.Fatal(err)
		}
		var recs []flowlog.Record
		for i := 0; i < 40*n; i++ {
			recs = append(recs, flowlog.Record{
				Time:        streamStart.Add(time.Duration(i) * time.Minute / 40),
				LocalIP:     netip.AddrFrom4([4]byte{10, 0, 0, byte(i%50 + 1)}),
				LocalPort:   8080,
				RemoteIP:    netip.AddrFrom4([4]byte{10, 1, 0, byte(i%7 + 1)}),
				RemotePort:  443,
				PacketsSent: 1,
				BytesSent:   100,
			})
		}
		r.IngestTraced(recs, nil)
		r.Engine().Flush()
	}

	mux := http.NewServeMux()
	status := statusz.Handler(statusSources(m))
	mux.Handle("/statusz", status)
	mux.Handle("/tenantz", status)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, path := range []string{"/statusz", "/tenantz"} {
		body := getJSON(t, srv.URL+path+"?format=json")
		var top map[string]json.RawMessage
		if err := json.Unmarshal(body, &top); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, key := range []string{"watermarks", "bus", "histstore"} {
			if _, ok := top[key]; ok {
				t.Errorf("%s: top-level %q section duplicates a tenant row", path, key)
			}
		}
		// The flat fields the benchmark decodes from /tenantz.
		var flat struct {
			Tenants []struct {
				Tenant          string  `json:"tenant"`
				Records         int64   `json:"records"`
				IngestSeconds   float64 `json:"ingest_seconds"`
				AnalysisSeconds float64 `json:"analysis_seconds"`
				SealedEpoch     uint64  `json:"sealed_epoch"`
				BurnedWindows   uint64  `json:"burned_windows"`
			} `json:"tenants"`
		}
		var st statusz.Status
		if err := json.Unmarshal(body, &flat); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(flat.Tenants) != len(minutes) {
			t.Fatalf("%s: %d rows, want one per tenant (%d)", path, len(flat.Tenants), len(minutes))
		}
		seen := map[string]bool{}
		for i, got := range flat.Tenants {
			if seen[got.Tenant] {
				t.Errorf("%s: tenant %s has two rows", path, got.Tenant)
			}
			seen[got.Tenant] = true
			r := m.Get(got.Tenant)
			if r == nil {
				t.Fatalf("%s: row for unknown tenant %q", path, got.Tenant)
			}
			cost, snap := r.Cost(), r.Watermarks().Snapshot()
			var burned uint64
			for _, stage := range snap.Stages {
				burned += stage.Burned
			}
			if got.Records != cost.Records || got.Records != int64(40*minutes[got.Tenant]) ||
				got.IngestSeconds != cost.IngestSeconds || got.AnalysisSeconds != cost.AnalysisSeconds {
				t.Errorf("%s: %s row %+v, realm.Cost %+v", path, got.Tenant, got, cost)
			}
			if got.SealedEpoch != snap.Sealed || got.SealedEpoch != uint64(minutes[got.Tenant]) || got.BurnedWindows != burned {
				t.Errorf("%s: %s row sealed %d burned %d, watermark snapshot sealed %d burned %d",
					path, got.Tenant, got.SealedEpoch, got.BurnedWindows, snap.Sealed, burned)
			}
			row := st.Tenants[i]
			if row.Watermarks == nil || row.SealedEpoch != row.Watermarks.Sealed {
				t.Errorf("%s: %s sealed_epoch %d disagrees with its own watermarks %+v", path, got.Tenant, row.SealedEpoch, row.Watermarks)
			}
			if len(row.Bus) == 0 || row.Hist == nil {
				t.Errorf("%s: %s row lacks its bus or history section: %+v", path, got.Tenant, row)
			}
		}
		if st.Scheduler == nil || st.Scheduler.Slots != workers {
			t.Fatalf("%s: scheduler = %+v, want %d slots", path, st.Scheduler, workers)
		}
		queued := map[string]bool{}
		for _, q := range st.Scheduler.Queues {
			queued[q.Tenant] = true
		}
		for name := range minutes {
			if !queued[name] {
				t.Errorf("%s: scheduler section lacks tenant %s: %+v", path, name, st.Scheduler.Queues)
			}
		}
	}
}

// TestStatuszWatermarksSurviveRestart kills a daemon mid-stream with
// SIGKILL and asserts the restarted daemon's /statusz watermarks agree
// with the history store's durable epoch range: every stage resumes at
// the recovered epoch (replayed windows are not re-analyzed latency), and
// after the rest of the stream the durable watermark tracks the store's
// newest epoch again.
func TestStatuszWatermarksSurviveRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real daemons")
	}
	bin := buildDaemon(t)
	recs := crashStream(t)
	cut := sort.Search(len(recs), func(i int) bool {
		return !recs[i].Time.Before(streamStart.Add(30 * time.Minute))
	})

	dataDir := filepath.Join(t.TempDir(), "hist")
	a := startDaemon(t, bin, dataDir, 0, withOps)
	feed(t, a.addr, recs[:cut])
	before := getStatus(t, a.opsAddr)
	if before.Watermarks == nil || before.Hist == nil {
		t.Fatalf("pre-crash status missing sections: %+v", before)
	}
	if before.Watermarks.Sealed == 0 {
		t.Fatal("no windows sealed before the crash")
	}
	// FLUSH drains the bus, so the durable watermark has caught the seal
	// and the store's newest epoch matches both.
	if before.Hist.NewestEpoch != before.Watermarks.Sealed {
		t.Errorf("pre-crash: histstore newest %d != sealed watermark %d",
			before.Hist.NewestEpoch, before.Watermarks.Sealed)
	}
	a.kill()

	b := startDaemon(t, bin, dataDir, 0, withOps)
	after := getStatus(t, b.opsAddr)
	if after.Watermarks == nil || after.Hist == nil {
		t.Fatalf("post-restart status missing sections: %+v", after)
	}
	// The resumed watermarks must agree with the durable ground truth: the
	// seal picks up at the store's newest epoch, ingest at the next one,
	// and every stage is fast-forwarded (replayed windows owe no latency).
	if after.Watermarks.Sealed != after.Hist.NewestEpoch {
		t.Errorf("post-restart: sealed watermark %d != histstore newest %d",
			after.Watermarks.Sealed, after.Hist.NewestEpoch)
	}
	if after.Watermarks.Sealed != before.Hist.NewestEpoch {
		t.Errorf("post-restart sealed %d, but the store held %d at the crash",
			after.Watermarks.Sealed, before.Hist.NewestEpoch)
	}
	if after.Watermarks.Ingested != after.Watermarks.Sealed+1 {
		t.Errorf("post-restart ingested %d, want sealed+1 = %d",
			after.Watermarks.Ingested, after.Watermarks.Sealed+1)
	}
	for _, st := range after.Watermarks.Stages {
		if st.Epoch != after.Watermarks.Sealed {
			t.Errorf("stage %s resumed at epoch %d, want %d", st.Name, st.Epoch, after.Watermarks.Sealed)
		}
		if st.Burned != 0 {
			t.Errorf("stage %s burned %d windows during replay; recovery must not burn budget", st.Name, st.Burned)
		}
	}

	// Finish the stream: the watermarks advance past the recovered epoch
	// and the durable stage tracks the store again.
	feed(t, b.addr, recs[cut:])
	final := getStatus(t, b.opsAddr)
	if final.Watermarks.Sealed <= after.Watermarks.Sealed {
		t.Errorf("sealed watermark stuck at %d after feeding the second half", final.Watermarks.Sealed)
	}
	if final.Watermarks.Sealed != final.Hist.NewestEpoch {
		t.Errorf("final: sealed %d != histstore newest %d", final.Watermarks.Sealed, final.Hist.NewestEpoch)
	}
	durable := false
	for _, st := range final.Watermarks.Stages {
		if st.Name == "durable" {
			durable = true
			if st.Epoch != final.Hist.NewestEpoch {
				t.Errorf("durable watermark %d != histstore newest %d", st.Epoch, final.Hist.NewestEpoch)
			}
		}
	}
	if !durable {
		t.Error("no durable stage in /statusz watermarks")
	}
	b.stop(t)
}

// TestNamedTenantWatermarkSeries: two named tenants ingest and flush
// through one daemon, and /metrics carries each one's seal-to-durable
// latency histogram under its tenant label, beside the default tenant's
// unlabeled series that dashboards and bench read.
func TestNamedTenantWatermarkSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a real daemon")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, filepath.Join(t.TempDir(), "hist"), 0, withOps)
	tenants := []string{"acme", "globex"}
	for i, tenant := range tenants {
		recs := tenantStream(t, int64(3+4*i), 2, 2)
		recs = recs[:sort.Search(len(recs), func(j int) bool { return !recs[j].Time.Before(streamStart.Add(10 * time.Minute)) })]
		tags := make([]string, len(recs))
		for j := range tags {
			tags[j] = tenant
		}
		feedTagged(t, d.addr, recs, tags, []string{tenant})
	}
	metrics := string(getJSON(t, "http://"+d.opsAddr+"/metrics"))
	count := func(series string) (float64, bool) {
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				return f, err == nil
			}
		}
		return 0, false
	}
	for _, tenant := range tenants {
		series := `cloudgraph_watermark_latency_seconds_count{stage="durable",tenant="` + tenant + `"}`
		if n, ok := count(series); !ok || n <= 0 {
			t.Errorf("%s = %v (present %v), want > 0", series, n, ok)
		}
	}
	if _, ok := count(`cloudgraph_watermark_latency_seconds_count{stage="durable"}`); !ok {
		t.Error("the default tenant's unlabeled durable series is gone")
	}
	d.stop(t)
}
