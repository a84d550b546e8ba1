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
// Consecutive frames with the same tag form a tenant run, the unit the
// server validates, resolves and routes (readBatchFlagged, ingestTagged).
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
)

// errDesync marks framing errors after which the byte stream cannot be
// re-synchronized; the server reports ERR and closes the connection.
var errDesync = errors.New("stream desynchronized")

// shortStream reports a batch whose frames stopped arriving: the peer
// closed, or the connection's read deadline passed mid-batch. The rest of
// the batch is unread, so the stream is lost (errDesync); err stays in the
// chain so the server can count a deadline as a timeout.
func shortStream(err error) error {
	return fmt.Errorf("short ingest stream (%w): %w", err, errDesync)
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

// tenantRun is a maximal run of consecutive frames in a decoded flagged
// batch that carry the same tenant tag. Runs tile the batch in order: a
// run starts where the previous one ends.
type tenantRun struct {
	// end is the run's exclusive end index into the batch.
	end int
	// name is the run's tag; "" marks untagged frames, which belong to
	// the session tenant (no writer emits an empty tag).
	name string
	// t is the tenant's entry in the connection's table: set by the
	// decoder when the tag names a tenant already admitted on this
	// connection, and by ingestTagged once every run is resolved.
	t *connTenant
}

// readBatchFlagged reads a declared batch of n flagged frames into sc's
// reused buffers, returning the records, their parallel trace contexts
// (nil unless some frame carries a trace field; a zero Context marks an
// untraced frame) and the batch's tenant runs. A frame whose tag bytes
// equal the current run's extends it with one comparison; only a frame
// that starts a run looks its tag up in the connection's table of
// admitted tenants, and only a miss there validates the name and
// allocates its string. Like readBatch it decodes in place from r's own
// buffer, which must hold the largest frame (flag, record, trace field,
// tenant length byte and a 0x7f-byte name), and it
// keeps readBatch's drain invariant for every recoverable error: once a
// frame's flag byte and tenant length byte fix its length, the remaining
// frames of the batch are consumed even when a record or tenant name
// fails validation, so the stream stays command-aligned. Only short
// reads, unknown flag bytes, and unframeable tenant lengths leave the
// stream mid-batch; all are errDesync and end the connection.
//
//vet:borrowed sc return
func readBatchFlagged(r *bufio.Reader, n int, sc *connScratch) ([]flowlog.Record, []trace.Context, []tenantRun, error) {
	if sc.batch == nil {
		pre := min(n, 4096) // don't let a huge declared count pre-allocate unboundedly
		sc.batch = make([]flowlog.Record, 0, pre)
	}
	batch, tcs, runs := sc.batch[:0], sc.tcs[:0], sc.runs[:0]
	var decodeErr, failErr error
	failAt := -1
	traced := false
	// Mid-batch failures save the scratch inline rather than through a
	// helper closure: the buffers are borrowed, and a closure capturing
	// them would pin them heap-reachable past the call.
	for i := 0; i < n; i++ {
		hdr, err := r.Peek(1)
		if err != nil {
			failAt, failErr = i, shortStream(err)
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
				failAt, failErr = i, shortStream(err)
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
			failAt, failErr = i, shortStream(err)
			break
		}
		// An untagged frame's name is empty, matching an untagged run.
		name := frame[nameAt:]
		if decodeErr == nil && (len(runs) == 0 || string(name) != runs[len(runs)-1].name) {
			runs = append(runs, tenantRun{end: len(batch)})
			run := &runs[len(runs)-1]
			if len(name) > 0 {
				if t := sc.tenants[string(name)]; t != nil {
					run.name, run.t = t.realm.Name(), t
				} else if realm.ValidNameBytes(name) {
					run.name = string(name)
				} else {
					decodeErr = fmt.Errorf("record %d: invalid tenant tag %q", i, name)
				}
			}
		}
		if decodeErr == nil {
			batch = nextSlot(batch)
			if err := flowlog.DecodeBinaryInto(&batch[len(batch)-1], frame[1:1+flowlog.WireSize]); err != nil {
				batch = batch[:len(batch)-1]
				decodeErr = fmt.Errorf("record %d: %v", i, err)
			} else {
				runs[len(runs)-1].end = len(batch)
				var tc trace.Context
				if flag&frameFlagTraced != 0 {
					traced = true
					tc.TraceID = binary.LittleEndian.Uint64(frame[1+flowlog.WireSize:])
					tc.SpanID = binary.LittleEndian.Uint64(frame[1+flowlog.WireSize+8:])
				}
				tcs = append(tcs, tc)
			}
		}
		//lint:allow errdrop Discard of bytes just Peeked cannot fail
		r.Discard(size)
	}
	sc.batch, sc.tcs, sc.runs = batch, tcs, runs
	if failErr != nil {
		return nil, nil, nil, fmt.Errorf("record %d: %w", failAt, failErr)
	}
	if decodeErr != nil {
		return nil, nil, nil, decodeErr
	}
	if !traced {
		tcs = nil
	}
	return batch, tcs, runs, nil
}
