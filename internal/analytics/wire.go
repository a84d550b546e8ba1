package analytics

// Traced INGEST framing. The legacy batch — "INGEST <n>" followed by n
// bare 76-byte flowlog frames — stays exactly as it was, so old clients
// and recorded streams keep working byte for byte. A client that sampled
// records for tracing or tags records with a tenant sends the flagged
// variant instead:
//
//	INGEST <n> T\n  followed by n flagged frames
//
// where each flagged frame is one flag byte, the 76-byte record, and the
// appendices the flag bits declare, in bit order:
//
//	0x00  plain record:  [flag][76-byte record]
//	0x01  traced record: [flag][76-byte record][8-byte trace ID][8-byte span ID]
//	0x02  tenant tag:    [flag][76-byte record][1-byte length][tenant name]
//	0x03  both:          [flag][76-byte record][16-byte trace field][tenant field]
//
// Trace IDs are little endian, matching the record encoding. The tenant
// field is a one-byte uvarint length followed by that many name bytes;
// realm.MaxNameLen (64) guarantees every legal length fits one varint
// byte, so a length byte with the continuation bit set (>= 0x80) or a
// zero length does not come from any writer we ever shipped and is
// treated as desync. Untagged frames (bit 0x02 clear) belong to the
// connection's session tenant — realm.DefaultTenant unless a TENANT
// command changed it — so single-tenant clients never pay the tag byte.
//
// Any flag above 0x03 is unrecoverable: the frame length is unknowable,
// so the reader cannot drain to the next command boundary and the
// connection must close (errDesync). A record that fails to decode
// inside a well-flagged frame — and a tenant name that is well-framed
// but invalid (too long, bad charset) — is recoverable exactly like the
// legacy path: the flag and length byte still fix the frame length, so
// the reader drains the rest of the declared batch and answers ERR with
// the stream in sync.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/trace"
)

const (
	// frameFlagPlain marks a flagged frame carrying only the record.
	frameFlagPlain = 0x00
	// frameFlagTraced sets the 16-byte trace field appendix.
	frameFlagTraced = 0x01
	// frameFlagTenant sets the tenant tag appendix.
	frameFlagTenant = 0x02
	// frameFlagMax is the highest valid flag (all bits known).
	frameFlagMax = frameFlagTraced | frameFlagTenant
	// traceFieldSize is the trace ID + span ID appendix.
	traceFieldSize = 16
	// maxFlaggedFrame is the longest well-framed flagged frame: flag,
	// record, trace field, tenant length byte and a 0x7f-byte name.
	maxFlaggedFrame = 1 + flowlog.WireSize + traceFieldSize + 1 + 0x7f
)

// errDesync marks framing errors after which the byte stream cannot be
// re-synchronized; the server reports ERR and closes the connection.
var errDesync = errors.New("stream desynchronized")

// appendFlaggedFrame encodes one flagged frame for rec with no tenant
// tag. A zero (unsampled) context emits the plain flag and no trace
// field.
func appendFlaggedFrame(buf []byte, rec flowlog.Record, tc trace.Context) []byte {
	return appendTaggedFrame(buf, rec, tc, "")
}

// appendTaggedFrame encodes one flagged frame carrying rec, an optional
// trace context, and an optional tenant tag ("" emits no tag: the frame
// belongs to the receiver's session tenant). The tenant must already be
// realm.ValidName; the encoder panics on oversize names rather than emit
// a frame every reader rejects.
func appendTaggedFrame(buf []byte, rec flowlog.Record, tc trace.Context, tenant string) []byte {
	flag := byte(frameFlagPlain)
	if tc.Sampled() {
		flag |= frameFlagTraced
	}
	if tenant != "" {
		flag |= frameFlagTenant
		if len(tenant) > realm.MaxNameLen {
			panic(fmt.Sprintf("tenant tag %q exceeds MaxNameLen", tenant))
		}
	}
	buf = append(buf, flag)
	buf = flowlog.AppendBinary(buf, rec)
	if flag&frameFlagTraced != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, tc.TraceID)
		buf = binary.LittleEndian.AppendUint64(buf, tc.SpanID)
	}
	if flag&frameFlagTenant != 0 {
		buf = append(buf, byte(len(tenant)))
		buf = append(buf, tenant...)
	}
	return buf
}

// internTenant returns the canonical string for a wire tenant name,
// reusing the per-connection table so a steady stream of tagged frames
// allocates each distinct name once. The map lookup keyed by
// string(name) does not allocate on the hit path.
func internTenant(sc *connScratch, name []byte) string {
	if s, ok := sc.names[string(name)]; ok {
		return s
	}
	if sc.names == nil {
		sc.names = make(map[string]string, 4)
	}
	s := string(name)
	sc.names[s] = s
	return s
}

// readBatchFlagged reads a declared batch of n flagged frames into sc's
// reused buffers, returning the records with their parallel trace
// contexts (zero Context on plain frames) and tenant tags ("" on
// untagged frames). Like readBatch it decodes in place from r's own
// buffer, which must hold the largest frame (maxFlaggedFrame), and it
// keeps readBatch's drain invariant for every recoverable error: once a
// frame's flag byte and tenant length byte fix its length, the remaining
// frames of the batch are consumed even when a record or tenant name
// fails validation, so the stream stays command-aligned. Only short
// reads, unknown flag bytes, and unframeable tenant lengths (errDesync)
// leave the stream mid-batch, and all end the connection.
//
//vet:borrowed sc return
func readBatchFlagged(r *bufio.Reader, n int, sc *connScratch) ([]flowlog.Record, []trace.Context, []string, error) {
	if sc.batch == nil {
		pre := min(n, 4096) // don't let a huge declared count pre-allocate unboundedly
		sc.batch = make([]flowlog.Record, 0, pre)
	}
	batch, tcs, tenants := sc.batch[:0], sc.tcs[:0], sc.tenants[:0]
	var decodeErr, failErr error
	failAt := -1
	// Mid-batch failures save the scratch inline rather than through a
	// helper closure: the buffers are borrowed, and a closure capturing
	// them would pin them heap-reachable past the call.
	for i := 0; i < n; i++ {
		hdr, err := r.Peek(1)
		if err != nil {
			failAt, failErr = i, errors.New("short ingest stream")
			break
		}
		flag := hdr[0]
		if flag > frameFlagMax {
			failAt, failErr = i, fmt.Errorf("unknown frame flag 0x%02x: %w", flag, errDesync)
			break
		}
		// The frame so far: flag, record, trace field.
		size := 1 + flowlog.WireSize
		if flag&frameFlagTraced != 0 {
			size += traceFieldSize
		}
		nameAt := size
		if flag&frameFlagTenant != 0 {
			hdr, err = r.Peek(size + 1)
			if err != nil {
				failAt, failErr = i, errors.New("short ingest stream")
				break
			}
			// A continuation bit would mean a multi-byte varint length; no
			// legal name needs one (MaxNameLen = 64 < 0x80), so the frame
			// length is untrustworthy and the stream is lost. Zero-length
			// tags are equally unwritable: taggers omit the bit instead.
			// An oversize name under 0x80 is well framed: a recoverable
			// error whose bytes still have to be drained.
			lb := hdr[size]
			if lb == 0 || lb >= 0x80 {
				failAt, failErr = i, fmt.Errorf("unframeable tenant length 0x%02x: %w", lb, errDesync)
				break
			}
			nameAt, size = size+1, size+1+int(lb)
		}
		frame, err := r.Peek(size)
		if err != nil {
			failAt, failErr = i, errors.New("short ingest stream")
			break
		}
		name := frame[nameAt:]
		switch {
		case decodeErr != nil:
			// Draining the declared batch after a bad record.
		case flag&frameFlagTenant != 0 && !realm.ValidNameBytes(name):
			decodeErr = fmt.Errorf("record %d: invalid tenant tag %q", i, name)
		default:
			batch = nextSlot(batch)
			if err := flowlog.DecodeBinaryInto(&batch[len(batch)-1], frame[1:1+flowlog.WireSize]); err != nil {
				batch = batch[:len(batch)-1]
				decodeErr = fmt.Errorf("record %d: %v", i, err)
				break
			}
			var tc trace.Context
			if flag&frameFlagTraced != 0 {
				tc.TraceID = binary.LittleEndian.Uint64(frame[1+flowlog.WireSize:])
				tc.SpanID = binary.LittleEndian.Uint64(frame[1+flowlog.WireSize+8:])
			}
			tcs = append(tcs, tc)
			tenant := ""
			if flag&frameFlagTenant != 0 {
				tenant = internTenant(sc, name)
			}
			tenants = append(tenants, tenant)
		}
		//lint:allow errdrop Discard of bytes just Peeked cannot fail
		r.Discard(size)
	}
	sc.batch, sc.tcs, sc.tenants = batch, tcs, tenants
	if failErr != nil {
		return nil, nil, nil, fmt.Errorf("record %d: %w", failAt, failErr)
	}
	if decodeErr != nil {
		return nil, nil, nil, decodeErr
	}
	return batch, tcs, tenants, nil
}
