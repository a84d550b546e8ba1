package trace

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSamplerDeterminism pins the sampler contract the replay story depends
// on: two samplers with the same seed and rate, fed the same record stream,
// sample the same positions with the same trace IDs.
func TestSamplerDeterminism(t *testing.T) {
	const n = 10_000
	run := func() []Context {
		s := NewSampler(64, 42)
		out := make([]Context, n)
		for i := range out {
			out[i] = s.Next()
		}
		return out
	}
	a, b := run(), run()
	sampled := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d: run A got %+v, run B got %+v", i, a[i], b[i])
		}
		if a[i].Sampled() {
			sampled++
			if a[i].SpanID == 0 {
				t.Fatalf("record %d: sampled context with zero span ID", i)
			}
		}
	}
	if want := n / 64; sampled != want {
		t.Fatalf("sampled %d of %d records, want %d", sampled, n, want)
	}

	// A different seed must produce different IDs at the same positions.
	other := NewSampler(64, 43)
	for i := 0; i < n; i++ {
		c := other.Next()
		if c.Sampled() && c.TraceID == a[i].TraceID {
			t.Fatalf("record %d: seeds 42 and 43 collided on trace ID %016x", i, c.TraceID)
		}
	}
}

// TestSamplerDisabled: rate 0 and nil samplers never emit.
func TestSamplerDisabled(t *testing.T) {
	s := NewSampler(0, 1)
	for i := 0; i < 1000; i++ {
		if c := s.Next(); c.Sampled() {
			t.Fatalf("disabled sampler emitted %+v", c)
		}
	}
	var nilS *Sampler
	if c := nilS.Next(); c.Sampled() {
		t.Fatalf("nil sampler emitted %+v", c)
	}
}

// TestSamplerIDsUnique: the splitmix64-derived trace IDs of one run are
// pairwise distinct (the bijective mixer guarantees it; the test pins the
// k-derivation against off-by-one regressions that would repeat IDs).
func TestSamplerIDsUnique(t *testing.T) {
	s := NewSampler(2, 7)
	seen := make(map[uint64]int)
	for i := 0; i < 10_000; i++ {
		c := s.Next()
		if !c.Sampled() {
			continue
		}
		if prev, dup := seen[c.TraceID]; dup {
			t.Fatalf("trace ID %016x repeated at records %d and %d", c.TraceID, prev, i)
		}
		seen[c.TraceID] = i
	}
}

func testSpanTime(i int) time.Time {
	return time.Unix(1700000000, int64(i)*int64(time.Millisecond)).UTC()
}

// TestRecorderBounds: the recorder evicts oldest traces past maxTraces and
// caps spans per trace, and both drops are visible in Stats.
func TestRecorderBounds(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 6; i++ {
		ctx := Context{TraceID: uint64(i), SpanID: uint64(i)}
		r.Record(ctx, "stage", testSpanTime(i), time.Millisecond, "")
	}
	ids := r.TraceIDs()
	if len(ids) != 4 {
		t.Fatalf("retained %d traces, want 4", len(ids))
	}
	for i, want := range []uint64{3, 4, 5, 6} {
		if ids[i] != want {
			t.Fatalf("retained IDs %v, want [3 4 5 6]", ids)
		}
	}
	if spans := r.Trace(1); spans != nil {
		t.Fatalf("evicted trace 1 still returns %d spans", len(spans))
	}

	// Per-trace span cap.
	ctx := Context{TraceID: 99, SpanID: 1}
	for i := 0; i < maxSpansPerTrace+10; i++ {
		r.Record(ctx, "stage", testSpanTime(i), 0, "")
	}
	if got := len(r.Trace(99)); got != maxSpansPerTrace {
		t.Fatalf("trace 99 holds %d spans, want cap %d", got, maxSpansPerTrace)
	}
	_, dropped, evicted := r.Stats()
	if dropped != 10 {
		t.Fatalf("dropped = %d, want 10", dropped)
	}
	if evicted != 3 {
		t.Fatalf("evicted = %d, want 3 (traces 1, 2 and one for 99's arrival)", evicted)
	}
}

// TestRecorderOrdersByStart: Trace returns spans sorted by start time even
// when recorded out of order (merge spans land after append spans when
// windows straddle flushes).
func TestRecorderOrdersByStart(t *testing.T) {
	r := NewRecorder(0)
	ctx := Context{TraceID: 5, SpanID: 5}
	r.Record(ctx, "late", testSpanTime(3), 0, "")
	r.Record(ctx, "early", testSpanTime(1), 0, "")
	r.Record(ctx, "mid", testSpanTime(2), 0, "")
	spans := r.Trace(5)
	want := []string{"early", "mid", "late"}
	for i, sp := range spans {
		if sp.Stage != want[i] {
			t.Fatalf("stage order %v, want %v", spans, want)
		}
	}
}

// TestRecorderUnsampledNoop: unsampled contexts and nil recorders record
// nothing — the disabled-path contract every pipeline stage leans on.
func TestRecorderUnsampledNoop(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Context{}, "stage", testSpanTime(0), 0, "")
	if rec, _, _ := r.Stats(); rec != 0 {
		t.Fatalf("unsampled record was stored (recorded=%d)", rec)
	}
	var nilR *Recorder
	nilR.Record(Context{TraceID: 1}, "stage", testSpanTime(0), 0, "")
	if nilR.Trace(1) != nil || nilR.TraceIDs() != nil {
		t.Fatal("nil recorder returned data")
	}
}

// TestFlightRing: the ring retains exactly the last n entries with
// monotonic sequence numbers.
func TestFlightRing(t *testing.T) {
	f := NewFlight(8, nil, 0)
	for i := 0; i < 20; i++ {
		f.Add(Event{Component: "c", Kind: "event", Msg: fmt.Sprintf("m%d", i)})
	}
	evs := f.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot holds %d entries, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(13 + i); ev.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, ev.Seq, want)
		}
		if want := fmt.Sprintf("m%d", 12+i); ev.Msg != want {
			t.Fatalf("entry %d is %q, want %q", i, ev.Msg, want)
		}
	}
}

// TestFlightConcurrent hammers Add from many goroutines while snapshotting
// — the lock-free claim, checked under -race.
func TestFlightConcurrent(t *testing.T) {
	f := NewFlight(64, nil, 0)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.Add(Event{Component: "w", Kind: "event", Msg: fmt.Sprintf("%d/%d", w, i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			evs := f.Snapshot()
			for j := 1; j < len(evs); j++ {
				if evs[j].Seq <= evs[j-1].Seq {
					t.Errorf("snapshot out of order: seq %d after %d", evs[j].Seq, evs[j-1].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := f.pos.Load(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
}

// TestFlightTripRateLimit: a trip dumps the pre-fault window once; a storm
// of trips inside the gap records events without repeating the dump.
func TestFlightTripRateLimit(t *testing.T) {
	var out bytes.Buffer
	f := NewFlight(16, &out, time.Hour)
	f.Add(Event{Component: "store", Kind: "event", Msg: "pre-fault context"})
	if !f.Trip("store", "fsync failed") {
		t.Fatal("first trip did not dump")
	}
	for i := 0; i < 50; i++ {
		if f.Trip("store", "fsync failed again") {
			t.Fatal("rate-limited trip dumped")
		}
	}
	if f.Trips() != 51 {
		t.Fatalf("trips = %d, want 51", f.Trips())
	}
	dump := out.String()
	if !strings.Contains(dump, "flight recorder tripped: store: fsync failed") {
		t.Fatalf("dump missing trip banner:\n%s", dump)
	}
	if !strings.Contains(dump, "pre-fault context") {
		t.Fatalf("dump missing the pre-fault window:\n%s", dump)
	}
	if got := strings.Count(dump, "flight recorder tripped"); got != 1 {
		t.Fatalf("%d dumps written, want 1", got)
	}
}

// TestEventLogLevelGate: the text output honors its level while the flight
// ring keeps every level — the post-hoc view must not lose debug detail.
func TestEventLogLevelGate(t *testing.T) {
	var out bytes.Buffer
	tr := New(Options{LogOutput: &out, LogLevel: slog.LevelWarn, FlightEvents: 16})
	tr.Eventf(Context{}, "core", slog.LevelDebug, "debug detail %d", 1)
	tr.Eventf(Context{}, "core", slog.LevelWarn, "flush lag")
	text := out.String()
	if strings.Contains(text, "debug detail") {
		t.Fatalf("debug event leaked past warn gate:\n%s", text)
	}
	if !strings.Contains(text, "flush lag") {
		t.Fatalf("warn event missing from text output:\n%s", text)
	}
	evs := tr.Flight().Snapshot()
	if len(evs) != 2 {
		t.Fatalf("flight ring holds %d events, want both levels (2)", len(evs))
	}
	if !strings.Contains(evs[0].Msg, "debug detail") {
		t.Fatalf("flight ring lost the debug event: %+v", evs)
	}
}

// TestEventTraceCrossLink: an event carrying a sampled context exposes its
// trace ID both in the text line and in the flight entry.
func TestEventTraceCrossLink(t *testing.T) {
	var out bytes.Buffer
	tr := New(Options{LogOutput: &out, FlightEvents: 16})
	ctx := Context{TraceID: 0xabcdef, SpanID: 1}
	tr.Eventf(ctx, "analytics", slog.LevelInfo, "protocol error")
	if !strings.Contains(out.String(), "0000000000abcdef") {
		t.Fatalf("text event missing hex trace ID:\n%s", out.String())
	}
	evs := tr.Flight().Snapshot()
	if len(evs) != 1 || evs[0].TraceID != 0xabcdef {
		t.Fatalf("flight entry missing trace ID: %+v", evs)
	}
	if evs[0].Component != "analytics" {
		t.Fatalf("flight entry component = %q, want analytics", evs[0].Component)
	}
}

// TestTracerSpanMirror: Record stores the span and mirrors it to flight.
func TestTracerSpanMirror(t *testing.T) {
	tr := New(Options{FlightEvents: 16})
	ctx := Context{TraceID: 7, SpanID: 8}
	tr.Record(ctx, "core.shard", testSpanTime(0), 3*time.Millisecond, "shard=2")
	spans := tr.Recorder().Trace(7)
	if len(spans) != 1 || spans[0].Stage != "core.shard" || spans[0].Note != "shard=2" {
		t.Fatalf("recorded spans: %+v", spans)
	}
	evs := tr.Flight().Snapshot()
	if len(evs) != 1 || evs[0].Kind != "span" || evs[0].TraceID != 7 {
		t.Fatalf("flight mirror: %+v", evs)
	}
}

// TestNilTracerSafe: every Tracer method must be callable on nil — the
// pipeline threads nil when tracing is off.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if c := tr.Sample(); c.Sampled() {
		t.Fatal("nil tracer sampled")
	}
	tr.Record(Context{TraceID: 1}, "s", testSpanTime(0), 0, "")
	tr.Eventf(Context{}, "c", slog.LevelError, "boom")
	tr.Trip("c", "boom")
	if tr.Recorder() != nil || tr.Flight() != nil {
		t.Fatal("nil tracer exposed internals")
	}
	if err := tr.DumpFlight(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	log := tr.Logger("c")
	if log == nil {
		t.Fatal("nil tracer returned nil logger")
	}
	log.Info("discarded")
}

// TestTracerSampling: Sampling is false exactly when Sample can never
// return a sampled context — a nil tracer, or SampleEvery 0 or below —
// and true at one in N, where Sample then emits on every Nth draw.
func TestTracerSampling(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Sampling() {
		t.Error("nil tracer reports sampling")
	}
	for _, every := range []int{0, -1} {
		tr := New(Options{SampleEvery: every})
		if tr.Sampling() {
			t.Errorf("SampleEvery %d reports sampling", every)
		}
		for range 100 {
			if c := tr.Sample(); c.Sampled() {
				t.Fatalf("SampleEvery %d sampled %+v", every, c)
			}
		}
	}
	const every = 4
	tr := New(Options{SampleEvery: every, Seed: 1})
	if !tr.Sampling() {
		t.Fatalf("SampleEvery %d does not report sampling", every)
	}
	for i := 1; i <= 3*every; i++ {
		if got, want := tr.Sample().Sampled(), i%every == 0; got != want {
			t.Fatalf("draw %d: sampled %v, want %v", i, got, want)
		}
	}
}
