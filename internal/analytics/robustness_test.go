package analytics

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/telemetry"
)

func TestServerStalledConnTimesOut(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, _ := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}, Telemetry: reg},
		Options{IdleTimeout: 50 * time.Millisecond})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A scripted session first, for the per-command meters: each command
	// answers one line, ERRs included.
	script := "STATS\nstats\nBOGUS\nQUERY segment latest\n"
	if _, err := conn.Write([]byte(script)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for range strings.Count(script, "\n") {
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	// Then send half a command and stall: the server must cut us off at
	// the idle deadline rather than wait forever for the newline.
	if _, err := conn.Write([]byte("STA")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("read returned data; want connection closed by idle deadline")
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.tel.timeouts.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.tel.timeouts.Value(); got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}
	if got := s.tel.conns.Value(); got != 1 {
		t.Errorf("connections counter = %d, want 1", got)
	}
	// The timeout fired after the last response was flushed, so every
	// command's latency sample has landed too.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for cmd, want := range map[string]int{"stats": 2, "unknown": 1, "query": 1, "ingest": 0, "flush": 0, "tenant": 0, "quit": 0} {
		for _, series := range []string{
			fmt.Sprintf(`cloudgraph_analytics_commands_total{command=%q} %d`, cmd, want),
			fmt.Sprintf(`cloudgraph_analytics_command_seconds_count{command=%q} %d`, cmd, want),
		} {
			if !strings.Contains(prom.String(), series+"\n") {
				t.Errorf("metrics lack %s", series)
			}
		}
	}
}

// TestServerRejectsOverlongCommandLine: a peer streaming bytes with no
// newline must not grow the server's command line without bound. Once the
// read buffer fills, the server answers ERR and closes the connection.
func TestServerRejectsOverlongCommandLine(t *testing.T) {
	s, _ := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}}, Options{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		// The server closes mid-stream, so this write fails part way.
		conn.Write(bytes.Repeat([]byte{'A'}, 1<<20))
	}()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERR command line too long") {
		t.Fatalf("overlong line: got %q, %v; want an ERR line", line, err)
	}
	// Closed, not waiting: EOF, or a reset because the unread bytes the
	// peer was still sending met the close.
	if _, err := r.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("after the ERR line: %v; want the connection closed", err)
	}
}

func TestServerCloseUnblocksStalledConn(t *testing.T) {
	// The leak scenario: with default (minutes-long) deadlines a stalled
	// peer would pin its handler goroutine long past Close unless Close
	// force-closes tracked connections. Close must return promptly and
	// leave no handler goroutines behind. The manager's bus goroutines
	// predate the count: the server alone must not leak.
	m, err := realm.NewManager(realm.Config{Engine: core.Config{Window: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	before := runtime.NumGoroutine()

	s, err := Serve("127.0.0.1:0", m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("STATS")); err != nil { // no newline: stalled mid-command
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a stalled connection")
	}

	// All accept/handler goroutines must be gone once Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked: %d -> %d\n%s", before, got, buf[:runtime.Stack(buf, true)])
	}
}

func TestGraphzHandler(t *testing.T) {
	_, m := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}, Live: true}, Options{})
	h := GraphzHandler(m)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz", nil))
	if rr.Code != 404 {
		t.Errorf("empty timeline: status = %d, want 404", rr.Code)
	}

	def := m.Default()
	def.IngestTraced(hourOf(t, testCluster(t), t0), nil)
	def.Engine().Flush()

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz?size=16", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	body := rr.Body.String()
	if !strings.Contains(body, "nodes") || len(strings.Split(body, "\n")) < 3 {
		t.Errorf("ascii heatmap missing header or rows:\n%s", body)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz?format=pgm", nil))
	if rr.Code != 200 || !strings.HasPrefix(rr.Body.String(), "P5\n") {
		t.Errorf("pgm: status = %d, body prefix %q", rr.Code, rr.Body.String()[:8])
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz?size=9999", nil))
	if rr.Code != 400 {
		t.Errorf("oversized size: status = %d, want 400", rr.Code)
	}

	// ?tenant= renders that tenant's latest window; the default tenant's
	// answer is the parameter-free one.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz?size=16&tenant=default", nil))
	if rr.Code != 200 || rr.Body.String() != body {
		t.Errorf("tenant=default: status = %d, body differs from the default view", rr.Code)
	}
	acme, err := m.Realm("acme")
	if err != nil {
		t.Fatal(err)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz?tenant=acme", nil))
	if rr.Code != 404 {
		t.Errorf("tenant without windows: status = %d, want 404", rr.Code)
	}
	acme.IngestTraced(testRecords(0, 50), nil)
	acme.Engine().Flush()
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz?size=16&tenant=acme", nil))
	if rr.Code != 200 || rr.Body.String() == body {
		t.Errorf("tenant=acme: status = %d, want 200 with acme's own window", rr.Code)
	}

	// Unknown and invalid names are 404s that never admit a tenant.
	for _, name := range []string{"nobody", "Bad%20Name", "diag"} {
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz?tenant="+name, nil))
		if rr.Code != 404 {
			t.Errorf("tenant=%s: status = %d, want 404", name, rr.Code)
		}
	}
	if n := len(m.Realms()); n != 2 {
		t.Errorf("/graphz admitted tenants: %d realms, want 2", n)
	}
}

// TestAnalyzTenant holds /analyz's ?tenant= to /graphz's contract: without
// it the view is the default tenant's plane, byte for byte; with it, that
// tenant's own plane answers; unknown and invalid names are 404s that
// never admit a tenant.
func TestAnalyzTenant(t *testing.T) {
	_, m := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}, Live: true}, Options{})
	h := AnalyzHandler(m)
	get := func(h http.Handler, path string) (int, string) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr.Code, rr.Body.String()
	}

	def := m.Default()
	def.IngestTraced(hourOf(t, testCluster(t), t0), nil)
	def.Engine().Flush()
	acme, err := m.Realm("acme")
	if err != nil {
		t.Fatal(err)
	}
	// acme holds two windows to the default tenant's one, so every view
	// tells the planes apart.
	recs := testRecords(0, 50)
	for _, r := range testRecords(0, 50) {
		r.Time = r.Time.Add(time.Hour)
		recs = append(recs, r)
	}
	acme.IngestTraced(recs, nil)
	acme.Engine().Flush()

	for _, q := range []string{"", "?analysis=segment", "?analysis=summarize&epoch=1"} {
		code, want := get(def.Plane().AnalyzHandler(), "/analyz"+q)
		if code != 200 {
			t.Fatalf("plane %s: status %d", q, code)
		}
		if code, body := get(h, "/analyz"+q); code != 200 || body != want {
			t.Errorf("default view %s: status %d, body differs from the default plane's", q, code)
		}
		sep := "?"
		if q != "" {
			sep = q + "&"
		}
		if code, body := get(h, "/analyz"+sep+"tenant=default"); code != 200 || body != want {
			t.Errorf("tenant=default %s: status %d, body differs from the default plane's", q, code)
		}
		_, acmeWant := get(acme.Plane().AnalyzHandler(), "/analyz"+q)
		if code, body := get(h, "/analyz"+sep+"tenant=acme"); code != 200 || body != acmeWant || body == want {
			t.Errorf("tenant=acme %s: status %d, want 200 with acme's own plane", q, code)
		}
	}

	for _, name := range []string{"nobody", "Bad%20Name", "diag"} {
		if code, _ := get(h, "/analyz?analysis=segment&tenant="+name); code != 404 {
			t.Errorf("tenant=%s: status = %d, want 404", name, code)
		}
	}
	if n := len(m.Realms()); n != 2 {
		t.Errorf("/analyz admitted tenants: %d realms, want 2", n)
	}
}
