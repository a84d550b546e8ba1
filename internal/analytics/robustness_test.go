package analytics

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
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

// TestServerSlowDripIngestTimesOut: a peer that sends an INGEST header and
// then drips its frames a byte at a time must not hold the connection past
// IdleTimeout. The read deadline is absolute, so it bounds the batch too:
// the server answers one ERR, closes the connection, counts one timeout
// and ingests nothing. The frames hold 0x0a bytes (address 10.0.0.10,
// port 0x0a0a), so a server that went back to reading commands after the
// cut batch would answer the rest of the drip as command lines.
func TestServerSlowDripIngestTimesOut(t *testing.T) {
	const (
		idle   = 100 * time.Millisecond
		frames = 8
		every  = 5 * time.Millisecond // the whole drip takes ≈3 s
	)
	rec := flowlog.Record{
		Time:    time.Unix(1700000000, 0).UTC(),
		LocalIP: netip.MustParseAddr("10.0.0.10"), LocalPort: 0x0a0a,
		RemoteIP: netip.MustParseAddr("10.0.0.1"), RemotePort: 443,
		PacketsSent: 10, BytesSent: 1000,
	}
	for _, c := range []struct {
		name, header string
		frame        func([]byte) []byte
	}{
		{"plain", "INGEST %d\n", func(b []byte) []byte { return flowlog.AppendBinary(b, rec) }},
		{"flagged", "INGEST %d T\n", func(b []byte) []byte { return appendTaggedFrame(b, rec, trace.Context{}, "") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, m := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}, Telemetry: telemetry.NewRegistry()},
				Options{IdleTimeout: idle})
			var body []byte
			for range frames {
				body = c.frame(body)
			}
			// The server arms its read deadline after accepting the
			// connection, so after this clock starts.
			start := time.Now()
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fmt.Fprintf(conn, c.header, frames); err != nil {
				t.Fatal(err)
			}
			dripped := make(chan struct{})
			go func() {
				defer close(dripped)
				for i := range body {
					if _, err := conn.Write(body[i : i+1]); err != nil {
						return // the server cut the connection
					}
					time.Sleep(every)
				}
			}()
			defer func() {
				conn.Close()
				<-dripped
			}()

			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			out, err := io.ReadAll(conn)
			closed := time.Since(start)
			if err != nil && !errors.Is(err, syscall.ECONNRESET) {
				t.Fatalf("reading until the server closes: %v (after %v, read %q)", err, closed, out)
			}
			if lines := strings.SplitAfter(string(out), "\n"); len(lines) != 2 || lines[1] != "" ||
				!strings.HasPrefix(lines[0], "ERR ") || !strings.Contains(lines[0], "short ingest stream") {
				t.Fatalf("server answered %q; want one ERR line for the cut batch, then the close", out)
			}
			if drip := time.Duration(len(body)) * every; closed < idle || closed >= drip {
				t.Errorf("connection closed after %v; want between IdleTimeout %v and the drip's %v", closed, idle, drip)
			}

			deadline := time.Now().Add(5 * time.Second)
			for s.tel.timeouts.Value() == 0 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := s.tel.timeouts.Value(); got != 1 {
				t.Errorf("timeout counter = %d, want 1", got)
			}
			if got := m.Default().Cost().Records; got != 0 {
				t.Errorf("realm ingested %d records from the cut batch, want 0", got)
			}
		})
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

// TestServerRejectsOversizedIngest: an INGEST declaring more than
// MaxIngestBatch records, plain or flagged, answers ERR before any frame is
// read and closes the connection, so no connection's batch buffer grows
// toward the count a peer declares. The client splits a longer slice into
// batches the server accepts.
func TestServerRejectsOversizedIngest(t *testing.T) {
	s, _ := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}}, Options{})
	for _, header := range []string{"INGEST %d\n", "INGEST %d T\n"} {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := fmt.Fprintf(conn, header, MaxIngestBatch+1); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		line, err := r.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "ERR batch of") {
			t.Fatalf("%q: got %q, %v; want an ERR line", strings.TrimSpace(header), line, err)
		}
		if _, err := r.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%q: after the ERR line: %v; want the connection closed", strings.TrimSpace(header), err)
		}
	}

	client, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ingest(testRecords(0, MaxIngestBatch+1)); err != nil {
		t.Fatalf("client ingest over the limit: %v", err)
	}
	if st, err := client.Stats(); err != nil || st.Records != MaxIngestBatch+1 {
		t.Fatalf("STATS after the split ingest: %+v, %v; want %d records", st, err, MaxIngestBatch+1)
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
	_, m := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}}, Options{})
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
	_, m := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}}, Options{})
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
