package analytics

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/trace"
)

// wireReader is the batch decoders' input in tests: the bufio.Reader they
// decode from, over a byte slice, able to say how much of it is unread.
type wireReader struct {
	*bufio.Reader
	src *bytes.Reader
}

func newWireReader(data []byte) *wireReader {
	src := bytes.NewReader(data)
	return &wireReader{Reader: bufio.NewReader(src), src: src}
}

// Len returns the bytes not yet consumed: still in src or buffered.
func (r *wireReader) Len() int { return r.src.Len() + r.Buffered() }

func wireTestRecord(i int) flowlog.Record {
	return flowlog.Record{
		Time:        time.Unix(1700000000+int64(i), 0).UTC(),
		LocalIP:     netip.MustParseAddr("10.0.0.1"),
		LocalPort:   443,
		RemoteIP:    netip.MustParseAddr("10.0.0.2"),
		RemotePort:  uint16(50000 + i),
		PacketsSent: 12,
		PacketsRcvd: 8,
		BytesSent:   4096,
		BytesRcvd:   512,
	}
}

// TestFlaggedRoundTrip encodes a mixed batch — plain and traced frames —
// and decodes it back, asserting records and contexts survive unchanged.
func TestFlaggedRoundTrip(t *testing.T) {
	recs := []flowlog.Record{wireTestRecord(0), wireTestRecord(1), wireTestRecord(2)}
	tcs := []trace.Context{
		{},
		{TraceID: 0xdeadbeefcafe, SpanID: 0x1234},
		{},
	}
	var buf []byte
	for i := range recs {
		buf = appendFlaggedFrame(buf, recs[i], tcs[i])
	}
	wantLen := 3*(1+flowlog.WireSize) + traceFieldSize
	if len(buf) != wantLen {
		t.Fatalf("encoded %d bytes, want %d", len(buf), wantLen)
	}
	r := newWireReader(buf)
	gotRecs, gotTcs, gotTenants, err := readBatchFlagged(r.Reader, 3, new(connScratch))
	if err != nil {
		t.Fatalf("readBatchFlagged: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("left %d bytes unread", r.Len())
	}
	if len(gotRecs) != 3 || len(gotTcs) != 3 || len(gotTenants) != 3 {
		t.Fatalf("got %d records, %d contexts, %d tenants", len(gotRecs), len(gotTcs), len(gotTenants))
	}
	for i, tn := range gotTenants {
		if tn != "" {
			t.Errorf("untagged frame %d decoded tenant %q", i, tn)
		}
	}
	for i := range recs {
		if gotRecs[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, gotRecs[i], recs[i])
		}
		if gotTcs[i] != tcs[i] {
			t.Errorf("context %d: got %+v want %+v", i, gotTcs[i], tcs[i])
		}
	}
}

// TestFlaggedDecodeErrorDrains pins the drain invariant on the flagged
// path: a record that fails to decode inside a well-flagged frame must not
// leave the rest of the declared batch in the stream, or the bytes after
// the batch — the next command — would be parsed as garbage.
func TestFlaggedDecodeErrorDrains(t *testing.T) {
	good := wireTestRecord(0)
	var buf []byte
	buf = appendFlaggedFrame(buf, good, trace.Context{TraceID: 7, SpanID: 8})
	// A zeroed record fails to decode (unspecified address) but the frame
	// length is still known from the flag.
	buf = append(buf, frameFlagTraced)
	buf = append(buf, make([]byte, flowlog.WireSize+traceFieldSize)...)
	buf = appendFlaggedFrame(buf, wireTestRecord(2), trace.Context{})
	const next = "STATS\n"
	buf = append(buf, next...)

	r := newWireReader(buf)
	_, _, _, err := readBatchFlagged(r.Reader, 3, new(connScratch))
	if err == nil {
		t.Fatal("want decode error")
	}
	if errors.Is(err, errDesync) {
		t.Fatalf("decode error must be recoverable, got desync: %v", err)
	}
	rest := make([]byte, r.Len())
	if _, rerr := io.ReadFull(r, rest); rerr != nil {
		t.Fatal(rerr)
	}
	if string(rest) != next {
		t.Fatalf("stream desynced: %d bytes left, want the %q command", len(rest), next)
	}
}

// TestFlaggedBadFlagIsDesync: an unknown flag byte makes the frame length
// unknowable, so the reader must give up with errDesync instead of
// guessing its way further into the stream.
func TestFlaggedBadFlagIsDesync(t *testing.T) {
	buf := appendFlaggedFrame(nil, wireTestRecord(0), trace.Context{})
	buf = append(buf, 0x7f) // second frame: invalid flag
	buf = append(buf, make([]byte, flowlog.WireSize)...)
	_, _, _, err := readBatchFlagged(newWireReader(buf).Reader, 2, new(connScratch))
	if !errors.Is(err, errDesync) {
		t.Fatalf("want errDesync, got %v", err)
	}
}

// TestOldFormatHasNoTraceField pins backward compatibility at the frame
// level: legacy bare frames decode through readBatch exactly as before
// (they carry no flag byte and no trace field), and a legacy batch's bytes
// decode to the same records the flagged encoding of the same batch does
// — the trace field is purely additive.
func TestOldFormatHasNoTraceField(t *testing.T) {
	recs := []flowlog.Record{wireTestRecord(0), wireTestRecord(1)}
	var legacy []byte
	for _, r := range recs {
		legacy = flowlog.AppendBinary(legacy, r)
	}
	gotOld, err := readBatch(newWireReader(legacy).Reader, 2, new(connScratch))
	if err != nil {
		t.Fatalf("readBatch: %v", err)
	}
	var flagged []byte
	for _, r := range recs {
		flagged = appendFlaggedFrame(flagged, r, trace.Context{})
	}
	gotNew, tcs, _, err := readBatchFlagged(newWireReader(flagged).Reader, 2, new(connScratch))
	if err != nil {
		t.Fatalf("readBatchFlagged: %v", err)
	}
	for i := range recs {
		if gotOld[i] != gotNew[i] {
			t.Errorf("record %d: legacy %+v != flagged %+v", i, gotOld[i], gotNew[i])
		}
		if tcs[i].Sampled() {
			t.Errorf("record %d: plain frame produced a sampled context %+v", i, tcs[i])
		}
	}
}

// TestTaggedRoundTrip encodes a batch mixing untagged, tagged, and
// traced+tagged frames and decodes it back, asserting records, contexts,
// and tenant tags survive unchanged — and that the tag field's cost is
// exactly 1+len(name) bytes on tagged frames and zero on untagged ones.
func TestTaggedRoundTrip(t *testing.T) {
	recs := []flowlog.Record{wireTestRecord(0), wireTestRecord(1), wireTestRecord(2)}
	tcs := []trace.Context{{}, {TraceID: 0xdeadbeefcafe, SpanID: 0x1234}, {}}
	tenants := []string{"", "acme", "globex-prod"}
	var buf []byte
	for i := range recs {
		buf = appendTaggedFrame(buf, recs[i], tcs[i], tenants[i])
	}
	wantLen := 3*(1+flowlog.WireSize) + traceFieldSize + (1 + len("acme")) + (1 + len("globex-prod"))
	if len(buf) != wantLen {
		t.Fatalf("encoded %d bytes, want %d", len(buf), wantLen)
	}
	r := newWireReader(buf)
	gotRecs, gotTcs, gotTenants, err := readBatchFlagged(r.Reader, 3, new(connScratch))
	if err != nil {
		t.Fatalf("readBatchFlagged: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("left %d bytes unread", r.Len())
	}
	for i := range recs {
		if gotRecs[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, gotRecs[i], recs[i])
		}
		if gotTcs[i] != tcs[i] {
			t.Errorf("context %d: got %+v want %+v", i, gotTcs[i], tcs[i])
		}
		if gotTenants[i] != tenants[i] {
			t.Errorf("tenant %d: got %q want %q", i, gotTenants[i], tenants[i])
		}
	}
}

// TestTaggedInterning: the same tenant tag decoded many times on one
// connection must return one canonical string (the interning that keeps
// the tagged hot path allocation-free).
func TestTaggedInterning(t *testing.T) {
	var buf []byte
	for i := 0; i < 4; i++ {
		buf = appendTaggedFrame(buf, wireTestRecord(i), trace.Context{}, "acme")
	}
	_, _, tenants, err := readBatchFlagged(newWireReader(buf).Reader, 4, new(connScratch))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tenants); i++ {
		// Same backing string, not merely equal bytes.
		if unsafeStringData(tenants[i]) != unsafeStringData(tenants[0]) {
			t.Fatalf("tenant %d not interned", i)
		}
	}
}

func unsafeStringData(s string) *byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.StringData(s)
}

// TestTaggedInvalidNameDrains: a well-framed but invalid tenant name
// (bad charset) is a recoverable error — the reader drains the declared
// batch and the next command stays aligned, exactly like a bad record.
func TestTaggedInvalidNameDrains(t *testing.T) {
	var buf []byte
	buf = appendTaggedFrame(buf, wireTestRecord(0), trace.Context{}, "acme")
	bad := appendTaggedFrame(nil, wireTestRecord(1), trace.Context{}, "acme")
	bad[1+flowlog.WireSize+1] = 'A' // uppercase: invalid charset, length intact
	buf = append(buf, bad...)
	buf = appendTaggedFrame(buf, wireTestRecord(2), trace.Context{}, "acme")
	const next = "STATS\n"
	buf = append(buf, next...)

	r := newWireReader(buf)
	_, _, _, err := readBatchFlagged(r.Reader, 3, new(connScratch))
	if err == nil {
		t.Fatal("want invalid-tenant error")
	}
	if errors.Is(err, errDesync) {
		t.Fatalf("invalid name must be recoverable, got desync: %v", err)
	}
	rest := make([]byte, r.Len())
	if _, rerr := io.ReadFull(r, rest); rerr != nil {
		t.Fatal(rerr)
	}
	if string(rest) != next {
		t.Fatalf("stream desynced: %d bytes left, want the %q command", len(rest), next)
	}
}

// TestTaggedBadLengthIsDesync: a tenant length byte of zero or with the
// varint continuation bit set cannot come from any writer we shipped, so
// the frame length is untrustworthy and the reader must desync.
func TestTaggedBadLengthIsDesync(t *testing.T) {
	for _, lb := range []byte{0x00, 0x80, 0xff} {
		buf := appendTaggedFrame(nil, wireTestRecord(0), trace.Context{}, "acme")
		buf[1+flowlog.WireSize] = lb
		_, _, _, err := readBatchFlagged(newWireReader(buf).Reader, 1, new(connScratch))
		if !errors.Is(err, errDesync) {
			t.Fatalf("length byte 0x%02x: want errDesync, got %v", lb, err)
		}
	}
}

// TestTaggedFileRoundTrip pins the .tflows file codec over the same
// framing.
func TestTaggedFileRoundTrip(t *testing.T) {
	recs := []flowlog.Record{wireTestRecord(0), wireTestRecord(1), wireTestRecord(2)}
	tenants := []string{"acme", "", "globex"}
	var buf []byte
	for i := range recs {
		buf = AppendTagged(buf, recs[i], tenants[i])
	}
	gotRecs, gotTenants, err := ReadTagged(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRecs) != 3 {
		t.Fatalf("got %d records", len(gotRecs))
	}
	for i := range recs {
		if gotRecs[i] != recs[i] || gotTenants[i] != tenants[i] {
			t.Errorf("frame %d: got (%+v, %q) want (%+v, %q)",
				i, gotRecs[i], gotTenants[i], recs[i], tenants[i])
		}
	}
	// Truncated mid-frame: must error, not silently stop.
	if _, _, err := ReadTagged(bytes.NewReader(buf[:len(buf)-3])); err == nil {
		t.Fatal("truncated stream read cleanly")
	}
}

// TestServerClosesOnDesync drives the server over a real connection: a bad
// flag byte inside INGEST ... T gets one ERR response and then the
// connection closes, because the byte stream cannot be re-aligned.
func TestServerClosesOnDesync(t *testing.T) {
	s := testServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var buf []byte
	buf = append(buf, []byte("INGEST 1 T\n")...)
	buf = append(buf, 0x7f)
	buf = append(buf, make([]byte, flowlog.WireSize)...)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(conn) // server replies, then must close: read to EOF
	if err != nil {
		t.Fatalf("read to EOF: %v", err)
	}
	resp := string(data)
	if !strings.HasPrefix(resp, "ERR ") {
		t.Fatalf("want ERR response, got %q", resp)
	}
	if !strings.Contains(resp, "flag") {
		t.Fatalf("ERR should name the bad flag, got %q", resp)
	}
	if strings.Count(resp, "\n") != 1 {
		t.Fatalf("connection should close after the ERR line, got %q", resp)
	}
}

// TestReadBatchSpansBufferRefills decodes batches longer than the reader's
// buffer, so the Peek-a-run loop refills mid-batch, and checks the drain
// invariant holds across refills: a bad frame early in the batch still
// consumes every declared frame and nothing after them.
func TestReadBatchSpansBufferRefills(t *testing.T) {
	const n = 9
	var good, bad []byte
	for i := 0; i < n; i++ {
		good = flowlog.AppendBinary(good, wireTestRecord(i))
	}
	bad = append(bad, good...)
	clear(bad[2*flowlog.WireSize : 3*flowlog.WireSize]) // frame 2: unspecified addresses
	for _, size := range []int{flowlog.WireSize, 200, 4096} {
		for name, data := range map[string][]byte{"good": good, "bad": bad} {
			src := bytes.NewReader(append(append([]byte(nil), data...), "STATS\n"...))
			r := bufio.NewReaderSize(src, size)
			batch, err := readBatch(r, n, new(connScratch))
			if name == "good" && (err != nil || len(batch) != n || batch[n-1] != wireTestRecord(n-1)) {
				t.Errorf("buffer %d: %d records, err %v; want %d", size, len(batch), err, n)
			}
			if name == "bad" && (err == nil || !strings.Contains(err.Error(), "record 2")) {
				t.Errorf("buffer %d: err = %v, want a decode error at record 2", size, err)
			}
			if rest, _ := io.ReadAll(r); string(rest) != "STATS\n" {
				t.Errorf("buffer %d, %s batch: %d bytes left after the batch, want the next command", size, name, len(rest))
			}
		}
	}
}
