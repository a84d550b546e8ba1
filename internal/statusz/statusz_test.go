package statusz

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/diag"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/trace"
	"cloudgraph/internal/watermark"
)

func testSources(t *testing.T) Sources {
	t.Helper()
	wm := watermark.New(watermark.Config{FreshnessTarget: time.Second})
	st := wm.Stage("published", false)
	wm.Ingested(1)
	wm.Sealed(1, time.Now())
	st.Advance(1)
	wm.Ingested(2)

	fl := trace.NewFlight(16, nil, 0)
	fl.Trip("core", "test anomaly")

	dm, err := diag.New(diag.Config{Dir: t.TempDir(), CPUProfile: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("diag.New: %v", err)
	}
	if _, err := dm.Trigger("test bundle"); err != nil {
		t.Fatalf("diag.Trigger: %v", err)
	}

	return Sources{
		Tenants: func() []TenantSources {
			return []TenantSources{{Cost: realm.Cost{Tenant: realm.DefaultTenant}, Watermarks: wm}}
		},
		Flight: fl,
		Diag:   dm,
		Start:  time.Now().Add(-time.Minute),
	}
}

func TestHandlerJSON(t *testing.T) {
	h := Handler(testSources(t))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz?format=json", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding /statusz JSON: %v", err)
	}
	if len(st.Tenants) != 1 {
		t.Fatalf("tenants = %+v, want one row", st.Tenants)
	}
	wm := st.Tenants[0].Watermarks
	if wm == nil || wm.Sealed != 1 || wm.Ingested != 2 {
		t.Errorf("watermarks = %+v, want sealed 1 / ingested 2", wm)
	}
	if len(wm.Stages) != 1 || wm.Stages[0].Name != "published" {
		t.Errorf("stages = %+v", wm.Stages)
	}
	if st.Flight == nil || st.Flight.Trips != 1 || len(st.Flight.RecentTrips) != 1 {
		t.Errorf("flight = %+v, want 1 trip echoed", st.Flight)
	}
	if st.Diag == nil || st.Diag.Written != 1 || len(st.Diag.Bundles) != 1 {
		t.Errorf("diag = %+v, want 1 bundle listed", st.Diag)
	}
	if st.UptimeSeconds < 59 {
		t.Errorf("uptime = %v, want about a minute", st.UptimeSeconds)
	}
}

func TestHandlerHTML(t *testing.T) {
	h := Handler(testSources(t))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"watermarks", "published", "flight recorder", "test anomaly", "diagnostic bundles", "test-bundle"} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
}

func TestEmptySourcesStillServe(t *testing.T) {
	h := Handler(Sources{})
	for _, url := range []string{"/statusz", "/statusz?format=json"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Errorf("%s: status %d", url, rec.Code)
		}
	}
	var st Status
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz?format=json", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("empty status JSON: %v", err)
	}
	if st.Tenants != nil || st.Scheduler != nil {
		t.Errorf("empty sources produced sections: %+v", st)
	}
}

func TestJSONMatchesHandler(t *testing.T) {
	s := testSources(t)
	body, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("Sources.JSON not decodable: %v", err)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Watermarks == nil || st.Diag == nil {
		t.Errorf("Sources.JSON missing sections: %+v", st)
	}
}
