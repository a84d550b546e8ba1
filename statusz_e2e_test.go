package cloudgraph

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/diag"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/statusz"
	"cloudgraph/internal/watermark"
)

// TestStatuszStalledConsumerEndToEnd is the observability acceptance
// scenario: run an engine whose analysis consumer is deliberately slower
// than the freshness target, and verify the whole anomaly path fires —
// the stage watermark lags behind the seal mid-stream, the SLO burn
// counter increments, consecutive burns trip, and a diagnostic bundle
// lands on disk. /statusz is then checked against ground truth the test
// holds directly (engine epoch, watermark snapshot, bus stats).
//
// Set CLOUDGRAPH_E2E_KEEP_BUNDLE to a directory to copy the produced
// bundle there (CI uploads it as a workflow artifact).
func TestStatuszStalledConsumerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a multi-second stalled pipeline")
	}

	diagDir := t.TempDir()
	dm, err := diag.New(diag.Config{Dir: diagDir, MinGap: time.Millisecond, CPUProfile: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("diag.New: %v", err)
	}
	const target = 5 * time.Millisecond
	wm := watermark.New(watermark.Config{
		FreshnessTarget: target,
		Trip:            2,
		OnBurn: func(stage string, epoch, consecutive uint64) {
			dm.TriggerAsync(fmt.Sprintf("freshness SLO burn: stage %s %d windows behind target at epoch %d", stage, consecutive, epoch))
		},
	})
	stalled := wm.Stage("analyzed.stalled", true)

	// The stalled consumer takes 4x the freshness target per window and
	// rides a deliberately small buffer so the drop-oldest policy engages.
	e := core.NewEngine(core.Config{
		Window:     time.Minute,
		Shards:     4,
		Watermarks: wm,
		Consumers: []core.ConsumerSpec{{
			Name:   "analysis.stalled",
			Buffer: 8,
			Fn: func(epoch uint64, _ *graph.Graph) {
				time.Sleep(4 * target)
				stalled.Advance(epoch)
			},
		}},
	})
	defer e.Close()

	// Stream a tiny synthetic hour — two records per one-minute window —
	// so the seal rate depends on nothing but the ingest loop: ~60 epochs
	// burst out in microseconds while the consumer stalls 4x the target
	// per window, regardless of build mode (-race included).
	start := time.Unix(1700000000, 0).UTC().Truncate(time.Hour)
	a, b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	var recs []flowlog.Record
	for m := 0; m < 61; m++ {
		for s := 0; s < 2; s++ {
			recs = append(recs, flowlog.Record{
				Time:    start.Add(time.Duration(m)*time.Minute + time.Duration(s)*time.Second),
				LocalIP: a, LocalPort: 443, RemoteIP: b, RemotePort: 51000,
				PacketsSent: 1, BytesSent: 100,
			})
		}
	}
	e.Ingest(recs)

	// Mid-stream (before the drain) the stalled stage must lag the seal.
	var lagged bool
	for i := 0; i < 100 && !lagged; i++ {
		for _, st := range wm.Snapshot().Stages {
			if st.Name == "analyzed.stalled" && st.Lag > 0 {
				lagged = true
			}
		}
		time.Sleep(time.Millisecond)
	}
	if !lagged {
		t.Error("stalled consumer never showed watermark lag")
	}

	e.Flush() // drain: every queued window delivered, all stages settled
	snap := wm.Snapshot()
	sealed := e.Epoch()
	if sealed < 50 {
		t.Fatalf("only %d windows sealed; the synthetic hour should close ~60", sealed)
	}
	if snap.Sealed != sealed {
		t.Errorf("watermark sealed = %d, engine epoch = %d", snap.Sealed, sealed)
	}
	if len(snap.Stages) != 1 {
		t.Fatalf("stages = %+v", snap.Stages)
	}
	st := snap.Stages[0]
	if st.Epoch != sealed {
		t.Errorf("after drain, stalled stage at epoch %d, sealed %d", st.Epoch, sealed)
	}
	if st.Burned == 0 {
		t.Error("SLO burn counter never incremented despite 4x-target stalls")
	}
	if st.Trips == 0 {
		t.Error("consecutive burns never tripped")
	}
	if snap.BudgetRemaining > 0 {
		t.Errorf("budget remaining = %v after burning most windows", snap.BudgetRemaining)
	}

	// The anomaly trip must have produced a diagnostic bundle on disk.
	waitBundle := time.Now().Add(10 * time.Second)
	var bundles []diag.BundleInfo
	for {
		if bundles = dm.Bundles(); len(bundles) > 0 {
			break
		}
		if time.Now().After(waitBundle) {
			t.Fatal("no diagnostic bundle appeared after SLO trips")
		}
		time.Sleep(20 * time.Millisecond)
	}
	bundleDir := filepath.Join(diagDir, bundles[0].Name)
	for _, member := range []string{"reason.txt", "flight.txt", "metrics.prom", "status.json", "cpu.pprof", "heap.pprof", "bundle.json"} {
		if _, err := os.Stat(filepath.Join(bundleDir, member)); err != nil {
			t.Errorf("bundle missing %s: %v", member, err)
		}
	}

	// /statusz must agree with the ground truth read directly above.
	srv := httptest.NewServer(statusz.Handler(statusz.Sources{
		Tenants: func() []statusz.TenantSources {
			return []statusz.TenantSources{{Cost: realm.Cost{Tenant: realm.DefaultTenant}, Watermarks: wm, Bus: e.Bus()}}
		},
		Diag:  dm,
		Start: time.Now(),
	}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/statusz?format=json")
	if err != nil {
		t.Fatalf("GET /statusz: %v", err)
	}
	defer resp.Body.Close()
	var status statusz.Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatalf("decoding /statusz: %v", err)
	}
	if len(status.Tenants) != 1 {
		t.Fatalf("/statusz tenants = %+v, want the engine's one row", status.Tenants)
	}
	row := status.Tenants[0]
	if row.Watermarks == nil || row.Watermarks.Sealed != sealed {
		t.Errorf("/statusz sealed = %+v, engine epoch %d", row.Watermarks, sealed)
	}
	if len(row.Bus) != 1 || row.Bus[0].Name != "analysis.stalled" {
		t.Fatalf("/statusz bus = %+v", row.Bus)
	}
	bus := row.Bus[0]
	if bus.Delivered == 0 {
		t.Error("/statusz shows no deliveries for the stalled consumer")
	}
	if bus.Dropped == 0 {
		t.Error("/statusz shows no drops despite an 8-slot buffer under a 60-window burst")
	}
	if bus.Delivered+bus.Dropped != sealed {
		t.Errorf("delivered %d + dropped %d != sealed %d", bus.Delivered, bus.Dropped, sealed)
	}
	if status.Diag == nil || status.Diag.Written == 0 {
		t.Errorf("/statusz diag = %+v, want the written bundle", status.Diag)
	}

	if keep := os.Getenv("CLOUDGRAPH_E2E_KEEP_BUNDLE"); keep != "" {
		if err := copyDir(bundleDir, filepath.Join(keep, bundles[0].Name)); err != nil {
			t.Fatalf("keeping sample bundle: %v", err)
		}
		t.Logf("sample bundle copied to %s", filepath.Join(keep, bundles[0].Name))
	}
}

// copyDir copies one flat directory (a diagnostic bundle has no subdirs).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
