package analytics

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
)

// tracedClientCollector adapts a *Client to nicsim.TracedCollector so the
// fabric's out-of-band contexts ride the wire protocol's flagged frames.
type tracedClientCollector struct{ c *Client }

func (t tracedClientCollector) Collect(recs []flowlog.Record) error { return t.c.Ingest(recs) }
func (t tracedClientCollector) CollectTraced(recs []flowlog.Record, tcs []trace.Context) error {
	return t.c.IngestTraced(recs, tcs)
}

// pipelineStages is the Figure 8 journey a sampled record's trace must
// cover, in causal order.
var pipelineStages = []string{"nicsim.pull", "wire.ingest", "core.shard", "core.merge", "histstore.append"}

// TestTraceEndToEnd runs the whole pipeline — simulated NICs, the wire
// protocol, the windowing engine, the durable history — under one tracer
// with sampling on, and asserts a sampled record leaves exactly one span per
// stage, in order, under a single trace ID, retrievable from /tracez. It
// then injects a protocol fault and asserts /flightz serves the pre-fault
// window with the trip.
func TestTraceEndToEnd(t *testing.T) {
	tr := trace.New(trace.Options{
		SampleEvery:  1, // sample everything: the test wants complete journeys
		Seed:         7,
		MaxTraces:    1 << 16, // retain every trace of the small workload
		FlightEvents: 1 << 12,
	})

	s, _ := serve(t, realm.Config{
		Engine:  core.Config{Window: time.Hour},
		Trace:   tr,
		DataDir: t.TempDir(),
	}, Options{})

	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	c := testCluster(t)
	c.Fabric().Trace(tr)
	if _, err := c.Run(t0, 5, tracedClientCollector{cl}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Flush(); err != nil { // close the window: merge + history append
		t.Fatal(err)
	}

	// Find a trace covering the full journey. With sampling at 1-in-1 and
	// no eviction, every sampled record that landed in the flushed window
	// must have one; finding none means a stage dropped its context.
	rec := tr.Recorder()
	var full uint64
	for _, id := range rec.TraceIDs() {
		spans := rec.Trace(id)
		if len(spans) != len(pipelineStages) {
			continue
		}
		ok := true
		for i, sp := range spans { // rec.Trace returns start order
			if sp.Stage != pipelineStages[i] {
				ok = false
				break
			}
			if sp.TraceID != id {
				t.Fatalf("trace %016x holds a span with trace ID %016x", id, sp.TraceID)
			}
		}
		if ok {
			full = id
			break
		}
	}
	if full == 0 {
		t.Fatalf("no trace covers all stages %v (retained %d traces)", pipelineStages, len(rec.TraceIDs()))
	}

	// The journey must be retrievable from /tracez.
	hw := httptest.NewRecorder()
	trace.TracezHandler(rec).ServeHTTP(hw,
		httptest.NewRequest(http.MethodGet, "/tracez?trace="+strings.TrimLeft(hexID(full), "0"), nil))
	if hw.Code != http.StatusOK {
		t.Fatalf("/tracez: code %d body %s", hw.Code, hw.Body.String())
	}
	for _, stage := range pipelineStages {
		if !strings.Contains(hw.Body.String(), stage) {
			t.Fatalf("/tracez waterfall missing stage %q:\n%s", stage, hw.Body.String())
		}
	}

	// Inject a protocol error over a raw connection; the server trips the
	// flight recorder before replying, so once ERR is read the trip is in
	// the ring.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("BOGUS\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "ERR ") {
		t.Fatalf("want ERR, got %q", line)
	}

	fw := httptest.NewRecorder()
	trace.FlightzHandler(tr.Flight()).ServeHTTP(fw, httptest.NewRequest(http.MethodGet, "/flightz", nil))
	if fw.Code != http.StatusOK {
		t.Fatalf("/flightz: code %d", fw.Code)
	}
	dump := fw.Body.String()
	if !strings.Contains(dump, "protocol error") {
		t.Fatalf("/flightz missing the injected fault:\n%s", truncate(dump, 2000))
	}
	// The pre-fault window: pipeline spans recorded before the fault must
	// appear in the same dump, ahead of the trip.
	spanAt := strings.Index(dump, "histstore.append")
	tripAt := strings.Index(dump, "protocol error")
	if spanAt == -1 || spanAt > tripAt {
		t.Fatalf("/flightz pre-fault window missing or misordered (span@%d trip@%d):\n%s",
			spanAt, tripAt, truncate(dump, 2000))
	}
}

// TestTraceLegacyIngestSamplesServerSide: legacy INGEST batches carry no
// contexts, so the server samples them itself — the daemon's -trace-sample
// must trace file-driven ingest too, with journeys starting at the wire.
func TestTraceLegacyIngestSamplesServerSide(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 1, Seed: 3, MaxTraces: 1 << 16})
	s, _ := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}, Trace: tr}, Options{})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	c := testCluster(t)
	recs := hourOf(t, c, t0)[:64]
	if err := cl.Ingest(recs); err != nil { // legacy, unflagged path
		t.Fatal(err)
	}
	if _, err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	wireStages := []string{"wire.ingest", "core.shard", "core.merge", "histstore.append"}
	for _, id := range tr.Recorder().TraceIDs() {
		spans := tr.Recorder().Trace(id)
		if len(spans) != len(wireStages)-1 { // no -data-dir history: 3 stages
			continue
		}
		ok := true
		for i, sp := range spans {
			if sp.Stage != wireStages[i] {
				ok = false
				break
			}
		}
		if ok {
			return
		}
	}
	t.Fatalf("no server-sampled trace covers %v (retained %d traces)",
		wireStages[:3], len(tr.Recorder().TraceIDs()))
}

func hexID(id uint64) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = digits[id&0xf]
		id >>= 4
	}
	return string(out)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// IngestTraced streams a batch with its out-of-band trace contexts using
// the flagged-frame variant of INGEST. tcs must be nil or parallel to
// recs; with no sampled context (or nil tcs) it falls back to the legacy
// framing, so an untraced caller never pays the flag bytes.
func (c *Client) IngestTraced(recs []flowlog.Record, tcs []trace.Context) error {
	sampled := false
	if len(tcs) == len(recs) {
		for _, tc := range tcs {
			if tc.Sampled() {
				sampled = true
				break
			}
		}
	}
	if !sampled {
		return c.Ingest(recs)
	}
	return inBatches(len(recs), func(lo, hi int) error {
		if _, err := fmt.Fprintf(c.w, "INGEST %d T\n", hi-lo); err != nil {
			return err
		}
		buf := make([]byte, 0, 1+flowlog.WireSize+traceFieldSize)
		for i, r := range recs[lo:hi] {
			buf = appendFlaggedFrame(buf[:0], r, tcs[lo+i])
			if _, err := c.w.Write(buf); err != nil {
				return err
			}
		}
		return c.finishIngest(hi - lo)
	})
}

// TestQueryMissDoesNotTrip pins what a QUERY with no answer costs: on a
// live daemon with no sealed window, QUERY answers ERR and counts as a
// rejected command, but leaves no trip in the flight ring (with -data-dir
// set, a trip writes a diagnostic bundle), and the connection stays
// usable. A malformed QUERY is still a protocol fault and trips.
func TestQueryMissDoesNotTrip(t *testing.T) {
	tr := trace.New(trace.Options{FlightEvents: 1 << 8})
	s, _ := serve(t, realm.Config{
		Engine:    core.Config{Window: time.Hour},
		Live:      true,
		Trace:     tr,
		Telemetry: telemetry.NewRegistry(),
	}, Options{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	roundTrip := func(cmd string) string {
		t.Helper()
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		return line
	}
	trips := func() (n int) {
		for _, ev := range tr.Flight().Snapshot() {
			if ev.Kind == "trip" {
				n++
			}
		}
		return n
	}

	for _, cmd := range []string{"QUERY segment latest", "QUERY summarize 7", "QUERY nosuch latest", "QUERY policy 2023-11-14T22:00:00Z"} {
		if line := roundTrip(cmd); !strings.HasPrefix(line, "ERR ") {
			t.Fatalf("%s: want ERR, got %q", cmd, line)
		}
	}
	if n := trips(); n != 0 || tr.Flight().Trips() != 0 {
		t.Fatalf("QUERY misses tripped the flight recorder: %d trips in the ring, %d counted", n, tr.Flight().Trips())
	}
	if got := s.tel.protoErrs.Value(); got != 4 {
		t.Fatalf("protocol_errors_total = %d after four QUERY misses, want 4", got)
	}
	if line := roundTrip("STATS"); !strings.HasPrefix(line, "{") {
		t.Fatalf("STATS after the misses: got %q, want a JSON document", line)
	}

	if line := roundTrip("QUERY segment 0"); !strings.HasPrefix(line, "ERR ") {
		t.Fatalf("malformed QUERY: want ERR, got %q", line)
	}
	if n := trips(); n != 1 {
		t.Fatalf("a malformed QUERY left %d trips in the ring, want 1", n)
	}
}
