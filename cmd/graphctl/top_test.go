package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/realm"
	"cloudgraph/internal/statusz"
	"cloudgraph/internal/watermark"
)

// TestTopFetchAndRender drives the poll-and-draw path against a live
// statusz handler: graphctl top must decode what the daemon serves.
func TestTopFetchAndRender(t *testing.T) {
	wm := watermark.New(watermark.Config{FreshnessTarget: time.Second})
	stage := wm.Stage("analyzed.segment", true)
	wm.Ingested(1)
	wm.Sealed(1, time.Now())
	stage.Advance(1)
	wm.Ingested(2)
	wm.Sealed(2, time.Now())

	srv := httptest.NewServer(statusz.Handler(statusz.Sources{
		Start: time.Now().Add(-90 * time.Second),
		Tenants: func() []statusz.TenantSources {
			return []statusz.TenantSources{{
				Cost:       realm.Cost{Tenant: "acme", Weight: 4, Records: 1234, GraphBytes: 2048, DiskBytes: 1 << 21},
				Watermarks: wm,
			}}
		},
	}))
	defer srv.Close()

	st, err := fetchStatus(&http.Client{Timeout: time.Second}, srv.URL+"/statusz?format=json")
	if err != nil {
		t.Fatalf("fetchStatus: %v", err)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "acme" {
		t.Fatalf("decoded tenants = %+v, want one acme row", st.Tenants)
	}
	if wm := st.Tenants[0].Watermarks; wm == nil || wm.Sealed != 2 {
		t.Fatalf("decoded watermarks = %+v, want sealed epoch 2", wm)
	}

	var buf strings.Builder
	renderTop(&buf, st, srv.URL)
	out := buf.String()
	for _, want := range []string{"sealed 2", "analyzed.segment", "SLO budget", "lag", "acme", "2.0KiB", "2.0MiB"} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard frame missing %q:\n%s", want, out)
		}
	}
	// The analyzed stage sits at epoch 1 with epoch 2 sealed: lag 1.
	if !strings.Contains(out, "*analyzed.segment") {
		t.Errorf("SLO stage not starred:\n%s", out)
	}
}

func TestRenderTopEmptyStatus(t *testing.T) {
	var buf strings.Builder
	renderTop(&buf, statusz.Status{Time: time.Now()}, "http://x/statusz")
	if !strings.Contains(buf.String(), "empty status") {
		t.Errorf("empty frame = %q", buf.String())
	}
}
