package trace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func tracezReq(t *testing.T, h http.Handler, method, target string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, target, nil))
	return w
}

// TestTracezHandler covers the Content-Type contract and the three views:
// list, waterfall, JSON. The method gate belongs to the registrar and is
// pinned by telemetry's TestViewMethodContract.
func TestTracezHandler(t *testing.T) {
	rec := NewRecorder(0)
	ctx := Context{TraceID: 0xbeef, SpanID: 1}
	start := time.Unix(1700000000, 0).UTC()
	rec.Record(ctx, "nicsim.pull", start, time.Millisecond, "records=3")
	rec.Record(ctx, "store.append", start.Add(5*time.Millisecond), time.Millisecond, "")
	h := TracezHandler(rec)

	w := tracezReq(t, h, http.MethodGet, "/tracez")
	if w.Code != http.StatusOK {
		t.Fatalf("list: code %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("list: Content-Type %q", ct)
	}
	if body := w.Body.String(); !strings.Contains(body, "000000000000beef") ||
		!strings.Contains(body, "nicsim.pull -> store.append") {
		t.Fatalf("list body:\n%s", body)
	}

	w = tracezReq(t, h, http.MethodGet, "/tracez?trace=beef")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "records=3") {
		t.Fatalf("waterfall: code %d body:\n%s", w.Code, w.Body.String())
	}

	w = tracezReq(t, h, http.MethodGet, "/tracez?trace=beef&format=json")
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json: Content-Type %q", ct)
	}
	var tt tracezTrace
	if err := json.Unmarshal(w.Body.Bytes(), &tt); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	if tt.TraceID != "000000000000beef" || len(tt.Spans) != 2 {
		t.Fatalf("json trace: %+v", tt)
	}

	if w := tracezReq(t, h, http.MethodGet, "/tracez?trace=ffff"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown trace: code %d, want 404", w.Code)
	}
	if w := tracezReq(t, h, http.MethodGet, "/tracez?trace=zzz"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad trace id: code %d, want 400", w.Code)
	}
	if w := tracezReq(t, TracezHandler(nil), http.MethodGet, "/tracez"); w.Code != http.StatusNotFound {
		t.Fatalf("nil recorder: code %d, want 404", w.Code)
	}
	// HEAD follows GET semantics (net/http suppresses the body on real
	// connections; the handler must not reject the method).
	if w := tracezReq(t, h, http.MethodHead, "/tracez"); w.Code != http.StatusOK {
		t.Fatalf("HEAD: code %d", w.Code)
	}
}

// TestFlightzHandler: text dump and JSON entries.
func TestFlightzHandler(t *testing.T) {
	f := NewFlight(8, nil, 0)
	f.Add(Event{Time: time.Unix(1700000000, 0).UTC(), Component: "analytics", Kind: "trip", Msg: "protocol error"})
	h := FlightzHandler(f)

	w := tracezReq(t, h, http.MethodGet, "/flightz")
	if w.Code != http.StatusOK {
		t.Fatalf("dump: code %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("dump: Content-Type %q", ct)
	}
	if body := w.Body.String(); !strings.Contains(body, "protocol error") || !strings.Contains(body, "trip") {
		t.Fatalf("dump body:\n%s", body)
	}

	w = tracezReq(t, h, http.MethodGet, "/flightz?format=json")
	var evs []Event
	if err := json.Unmarshal(w.Body.Bytes(), &evs); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	if len(evs) != 1 || evs[0].Msg != "protocol error" {
		t.Fatalf("json entries: %+v", evs)
	}

	if w := tracezReq(t, FlightzHandler(nil), http.MethodGet, "/flightz"); w.Code != http.StatusNotFound {
		t.Fatalf("nil flight: code %d, want 404", w.Code)
	}
}
