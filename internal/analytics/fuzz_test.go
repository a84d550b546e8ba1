package analytics

import (
	"bytes"
	"errors"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/trace"
)

// FuzzDecodeFrame drives readBatch, the decoder behind INGEST, with
// arbitrary batch counts and frame bytes. The invariant under test is the
// mid-batch decode-error fix from PR 1: once the header has promised n
// frames and the stream holds them, readBatch consumes exactly
// n*flowlog.WireSize bytes whether decoding succeeds or fails, so the
// command stream behind the batch never desyncs into parsing frame bytes
// as commands.
func FuzzDecodeFrame(f *testing.F) {
	rec := flowlog.Record{
		Time:        time.Unix(1700000000, 0).UTC(),
		LocalIP:     netip.MustParseAddr("10.0.0.1"),
		LocalPort:   443,
		RemoteIP:    netip.MustParseAddr("10.0.0.2"),
		RemotePort:  55000,
		PacketsSent: 12,
		PacketsRcvd: 8,
		BytesSent:   4096,
		BytesRcvd:   512,
	}
	valid := flowlog.AppendBinary(nil, rec)
	valid = flowlog.AppendBinary(valid, rec.Reverse())
	f.Add(uint8(2), valid)
	// A zeroed middle frame decodes with an error (unspecified address):
	// the PR-1 path where the rest of the batch must still be drained.
	corrupt := append([]byte(nil), valid...)
	for i := 0; i < flowlog.WireSize; i++ {
		corrupt[i] = 0
	}
	f.Add(uint8(2), corrupt)
	f.Add(uint8(3), corrupt) // declared count exceeds the data: short stream
	f.Add(uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, count uint8, data []byte) {
		n := int(count % 17)
		r := newWireReader(data)
		batch, err := readBatch(r.Reader, n, new(connScratch))
		consumed := len(data) - r.Len()
		want := n * flowlog.WireSize
		if len(data) >= want {
			if consumed != want {
				t.Fatalf("n=%d len=%d: consumed %d bytes, want %d (err=%v)",
					n, len(data), consumed, want, err)
			}
		} else if err == nil {
			t.Fatalf("n=%d: readBatch succeeded with only %d of %d bytes", n, len(data), want)
		}
		if err != nil {
			return
		}
		if len(batch) != n {
			t.Fatalf("n=%d: got %d records", n, len(batch))
		}
		// Successful decodes re-encode to the exact consumed bytes.
		var enc []byte
		for _, rec := range batch {
			enc = flowlog.AppendBinary(enc, rec)
		}
		if !bytes.Equal(enc, data[:consumed]) {
			t.Fatalf("n=%d: round-trip mismatch", n)
		}
	})
}

// scanFlaggedFrames is the fuzz oracle for the flagged framing: it walks
// data the way readBatchFlagged's framing layer must, returning the byte
// count of n whole well-flagged frames. ok is false when the data runs
// short or hits an invalid flag or unframeable tenant length before n
// frames — the cases where the reader may not (short) or must not
// (desync) consume the whole batch. A well-framed but invalid tenant
// name is NOT a framing failure: the frame length is still known, so the
// reader drains it like any recoverable decode error.
func scanFlaggedFrames(data []byte, n int) (size int, ok bool) {
	pos := 0
	for i := 0; i < n; i++ {
		if pos >= len(data) {
			return 0, false
		}
		flag := data[pos]
		if flag > frameFlagMax {
			return 0, false
		}
		pos++
		frame := flowlog.WireSize
		if flag&frameFlagTraced != 0 {
			frame += traceFieldSize
		}
		if pos+frame > len(data) {
			return 0, false
		}
		pos += frame
		if flag&frameFlagTenant != 0 {
			if pos >= len(data) {
				return 0, false
			}
			l := data[pos]
			if l == 0 || l >= 0x80 {
				return 0, false // unframeable varint length: desync
			}
			pos++
			if pos+int(l) > len(data) {
				return 0, false
			}
			pos += int(l)
		}
	}
	return pos, true
}

// FuzzDecodeFlaggedFrame is FuzzDecodeFrame for the traced INGEST framing.
// The drain invariant generalizes: whenever every declared frame carries a
// valid flag and its full length, readBatchFlagged consumes exactly those
// frames — decode errors included — so the command stream stays aligned.
// Only a short stream or an unknown flag (errDesync) may stop early, and
// both end the connection.
func FuzzDecodeFlaggedFrame(f *testing.F) {
	rec := flowlog.Record{
		Time:        time.Unix(1700000000, 0).UTC(),
		LocalIP:     netip.MustParseAddr("10.0.0.1"),
		LocalPort:   443,
		RemoteIP:    netip.MustParseAddr("10.0.0.2"),
		RemotePort:  55000,
		PacketsSent: 12,
		PacketsRcvd: 8,
		BytesSent:   4096,
		BytesRcvd:   512,
	}
	valid := appendFlaggedFrame(nil, rec, trace.Context{TraceID: 0xabc, SpanID: 0xdef})
	valid = appendFlaggedFrame(valid, rec.Reverse(), trace.Context{})
	f.Add(uint8(2), valid)
	// Tagged frames: traced+tagged, then tagged only.
	tagged := appendTaggedFrame(nil, rec, trace.Context{TraceID: 0xabc, SpanID: 0xdef}, "acme")
	tagged = appendTaggedFrame(tagged, rec.Reverse(), trace.Context{}, "globex-prod")
	f.Add(uint8(2), tagged)
	// A tagged frame whose name is well-framed but invalid (uppercase):
	// recoverable, must drain.
	badName := appendTaggedFrame(nil, rec, trace.Context{}, "acme")
	badName[1+flowlog.WireSize+1] = 'A'
	badName = appendTaggedFrame(badName, rec.Reverse(), trace.Context{}, "acme")
	f.Add(uint8(2), badName)
	// A tenant length byte with the continuation bit: desync.
	badLen := appendTaggedFrame(nil, rec, trace.Context{}, "acme")
	badLen[1+flowlog.WireSize] = 0x84
	f.Add(uint8(1), badLen)
	// A zeroed traced frame: flag is valid, record fails to decode — the
	// recoverable case that must still drain the batch.
	corrupt := append([]byte(nil), valid...)
	for i := 1; i < 1+flowlog.WireSize; i++ {
		corrupt[i] = 0
	}
	f.Add(uint8(2), corrupt)
	// An invalid flag mid-batch: the desync case.
	desync := append([]byte(nil), valid...)
	desync[0] = 0x7f
	f.Add(uint8(2), desync)
	f.Add(uint8(3), valid) // declared count exceeds the data: short stream
	f.Add(uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, count uint8, data []byte) {
		n := int(count % 17)
		r := newWireReader(data)
		batch, tcs, tenants, err := readBatchFlagged(r.Reader, n, new(connScratch))
		consumed := len(data) - r.Len()
		if size, ok := scanFlaggedFrames(data, n); ok {
			if consumed != size {
				t.Fatalf("n=%d: consumed %d bytes, want %d whole frames = %d (err=%v)",
					n, consumed, n, size, err)
			}
			if errors.Is(err, errDesync) {
				t.Fatalf("n=%d: desync reported on well-flagged frames", n)
			}
		} else if err == nil {
			t.Fatalf("n=%d: succeeded on short or mis-flagged data (%d bytes)", n, len(data))
		}
		if err != nil {
			return
		}
		if len(batch) != n || len(tcs) != n || len(tenants) != n {
			t.Fatalf("n=%d: got %d records, %d contexts, %d tenants", n, len(batch), len(tcs), len(tenants))
		}
		// Successful decodes re-encode canonically: a traced flag with a
		// zero trace ID decodes as unsampled and re-encodes plain, so
		// compare by re-decoding the canonical bytes.
		var enc []byte
		for i := range batch {
			enc = appendTaggedFrame(enc, batch[i], tcs[i], tenants[i])
		}
		batch2, tcs2, tenants2, err := readBatchFlagged(newWireReader(enc).Reader, n, new(connScratch))
		if err != nil {
			t.Fatalf("n=%d: canonical re-decode failed: %v", n, err)
		}
		for i := range batch {
			if batch[i] != batch2[i] {
				t.Fatalf("n=%d record %d: round-trip mismatch", n, i)
			}
			if tcs[i].Sampled() != tcs2[i].Sampled() || (tcs[i].Sampled() && tcs[i] != tcs2[i]) {
				t.Fatalf("n=%d context %d: round-trip mismatch %+v vs %+v", n, i, tcs[i], tcs2[i])
			}
			if tenants[i] != tenants2[i] {
				t.Fatalf("n=%d tenant %d: round-trip mismatch %q vs %q", n, i, tenants[i], tenants2[i])
			}
		}
	})
}

// FuzzParseQuery drives the QUERY command decoder with arbitrary command
// lines. The invariants: the decoder never panics, accepts only names in
// its documented charset, and maps the selector exactly — absent or
// "latest" to the zero selector, a positive integer to that epoch, an
// RFC3339 timestamp to that instant, everything else to an error.
func FuzzParseQuery(f *testing.F) {
	f.Add("QUERY segment latest")
	f.Add("QUERY summarize 17")
	f.Add("QUERY policy")
	f.Add("QUERY counterfactual 0")
	f.Add("QUERY bad!name 3")
	f.Add("QUERY a b c d")
	f.Add("QUERY \x00\xff latest")
	f.Add("QUERY segment 18446744073709551615")
	f.Add("QUERY segment 99999999999999999999999")
	f.Add("QUERY segment 2023-11-14T22:13:20Z")
	f.Add("QUERY segment 2023-11-14T22:13:20+05:30")
	f.Add("QUERY segment 2023-13-99T99:99:99Z")

	f.Fuzz(func(t *testing.T, line string) {
		fields := strings.Fields(line)
		name, sel, err := parseQuery(fields)
		if err != nil {
			if name != "" || sel.epoch != 0 || !sel.at.IsZero() {
				t.Fatalf("error path leaked values: name=%q sel=%+v err=%v", name, sel, err)
			}
			return
		}
		if len(fields) < 2 || len(fields) > 3 {
			t.Fatalf("accepted %d fields: %q", len(fields), line)
		}
		if name != fields[1] || !validAnalysisName(name) {
			t.Fatalf("accepted name %q from %q", name, line)
		}
		if sel.epoch != 0 && !sel.at.IsZero() {
			t.Fatalf("selector is both epoch and time: %+v from %q", sel, line)
		}
		switch {
		case len(fields) == 2:
			if sel.epoch != 0 || !sel.at.IsZero() {
				t.Fatalf("no selector but sel=%+v", sel)
			}
		case strings.EqualFold(fields[2], "latest"):
			if sel.epoch != 0 || !sel.at.IsZero() {
				t.Fatalf("latest selector but sel=%+v", sel)
			}
		case sel.epoch != 0:
			n, perr := strconv.ParseUint(fields[2], 10, 64)
			if perr != nil || n == 0 || sel.epoch != n {
				t.Fatalf("selector %q decoded to epoch=%d (parse err %v)", fields[2], sel.epoch, perr)
			}
		default:
			at, perr := time.Parse(time.RFC3339, fields[2])
			if perr != nil || !sel.at.Equal(at) {
				t.Fatalf("selector %q decoded to time=%v (parse err %v)", fields[2], sel.at, perr)
			}
		}
	})
}
