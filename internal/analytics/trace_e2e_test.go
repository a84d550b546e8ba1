package analytics

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/nicsim"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
)

// sampledCollector samples a trace context for every record of each batch
// the fabric pulls, as a traced collection agent would, and sends the
// batch in flagged frames with its contexts out of band.
func sampledCollector(cl *Client, tr *trace.Tracer) nicsim.Collector {
	return nicsim.CollectorFunc(func(recs []flowlog.Record) error {
		tcs := make([]trace.Context, len(recs))
		for i := range tcs {
			tcs[i] = tr.Sample()
		}
		return cl.IngestTraced(recs, tcs)
	})
}

// pipelineStages is the Figure 8 journey a sampled record's trace covers
// up to its window's seal, in causal order.
var pipelineStages = []string{"wire.ingest", "core.shard", "core.merge"}

// analysisStages names the span every runner of the tenant's plane records
// against each sampled record of an analyzed window.
func analysisStages(m *realm.Manager) []string {
	var out []string
	for _, name := range m.Default().Plane().Runners() {
		out = append(out, "analysis."+name)
	}
	return out
}

// checkJourneys requires every trace that reached core.merge to be one
// complete journey under its own trace ID: exactly the ordered stages, in
// order, then exactly the sealed window's consumer stages in any order —
// the history append and the analysis plane run on separate bus
// goroutines. It returns one complete trace's ID, and fails when there is
// none.
func checkJourneys(t *testing.T, rec *trace.Recorder, ordered, consumers []string) uint64 {
	t.Helper()
	var full uint64
	for _, id := range rec.TraceIDs() {
		spans := rec.Trace(id) // start order
		stages := make([]string, len(spans))
		for i, sp := range spans {
			if sp.TraceID != id {
				t.Fatalf("trace %016x holds a span with trace ID %016x", id, sp.TraceID)
			}
			stages[i] = sp.Stage
		}
		if !slices.Contains(stages, "core.merge") {
			continue
		}
		n := min(len(ordered), len(stages))
		got, want := slices.Clone(stages[n:]), slices.Clone(consumers)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(stages[:n], ordered) || !slices.Equal(got, want) {
			t.Fatalf("trace %016x covers %v, want %v then %v in any order", id, stages, ordered, consumers)
		}
		full = id
	}
	if full == 0 {
		t.Fatalf("no trace reached core.merge (retained %d traces)", len(rec.TraceIDs()))
	}
	return full
}

// TestTraceEndToEnd runs the whole pipeline — simulated NICs, the wire
// protocol, the windowing engine, the durable history, the analysis plane
// — under one tracer with sampling on, the records' contexts sampled at
// collection and sent in flagged frames, and asserts every sampled record
// that reached its window's merge leaves exactly one span per stage under
// a single trace ID: the ingest stages in order, then the history append
// and each runner's analysis, retrievable from /tracez. It then injects a
// protocol fault and asserts /flightz serves the pre-fault window with the
// trip.
func TestTraceEndToEnd(t *testing.T) {
	tr := trace.New(trace.Options{
		SampleEvery:  1, // sample everything: the test wants complete journeys
		Seed:         7,
		MaxTraces:    1 << 16, // retain every trace of the small workload
		FlightEvents: 1 << 12,
	})

	s, m := serve(t, realm.Config{
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
	if _, err := c.Run(t0, 5, sampledCollector(cl, tr)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Flush(); err != nil { // close the window: merge, history append, analyses
		t.Fatal(err)
	}

	// With sampling at 1-in-1 and no eviction, every sampled record that
	// landed in the flushed window carries the full journey; a short one
	// means a stage dropped its context.
	rec := tr.Recorder()
	consumers := append([]string{"histstore.append"}, analysisStages(m)...)
	full := checkJourneys(t, rec, pipelineStages, consumers)

	// The journey must be retrievable from /tracez.
	hw := httptest.NewRecorder()
	trace.TracezHandler(rec).ServeHTTP(hw,
		httptest.NewRequest(http.MethodGet, "/tracez?trace="+strings.TrimLeft(hexID(full), "0"), nil))
	if hw.Code != http.StatusOK {
		t.Fatalf("/tracez: code %d body %s", hw.Code, hw.Body.String())
	}
	for _, stage := range append(slices.Clone(pipelineStages), consumers...) {
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
// must trace file-driven ingest too, with journeys starting at the wire
// and, without a data directory, ending in the analysis plane.
func TestTraceLegacyIngestSamplesServerSide(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 1, Seed: 3, MaxTraces: 1 << 16})
	s, m := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}, Trace: tr}, Options{})
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

	checkJourneys(t, tr.Recorder(), pipelineStages, analysisStages(m))
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
