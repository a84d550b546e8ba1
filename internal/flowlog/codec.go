package flowlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary wire format: fixed 76-byte little-endian frames so a stream can be
// read without per-record framing overhead. Layout:
//
//	0   int64   unix seconds
//	8   [16]b   local IP (IPv4 stored as v4-mapped v6)
//	24  uint16  local port
//	26  [16]b   remote IP
//	42  uint16  remote port
//	44  uint64  packets sent
//	52  uint64  packets received
//	60  uint64  bytes sent
//	68  uint64  bytes received
//
// Total = 76 bytes = WireSize.

// AppendBinary appends the fixed binary encoding of r to dst and returns the
// extended slice. It never fails for a Valid record.
//
//wire:codec Record
func AppendBinary(dst []byte, r Record) []byte {
	var buf [WireSize]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.Time.Unix()))
	a16 := r.LocalIP.As16()
	copy(buf[8:], a16[:])
	binary.LittleEndian.PutUint16(buf[24:], r.LocalPort)
	b16 := r.RemoteIP.As16()
	copy(buf[26:], b16[:])
	binary.LittleEndian.PutUint16(buf[42:], r.RemotePort)
	binary.LittleEndian.PutUint64(buf[44:], r.PacketsSent)
	binary.LittleEndian.PutUint64(buf[52:], r.PacketsRcvd)
	binary.LittleEndian.PutUint64(buf[60:], r.BytesSent)
	binary.LittleEndian.PutUint64(buf[68:], r.BytesRcvd)
	return append(dst, buf[:]...)
}

// DecodeBinary decodes one fixed-size frame from b. It returns ErrBadRecord
// if b is shorter than WireSize or the frame does not hold a plausible
// record: a real connection summary always names two specific endpoints,
// so an unspecified (all-zero) address means the frame is garbage — e.g. a
// stream that lost alignment. Field coverage lives in DecodeBinaryInto,
// which this wraps.
func DecodeBinary(b []byte) (Record, error) {
	var r Record
	err := DecodeBinaryInto(&r, b)
	return r, err
}

// DecodeBinaryInto decodes one fixed-size frame from b into *r, the
// allocation-free form of DecodeBinary the batch paths use: the caller owns
// r (typically one slot of a reused batch buffer) and may recycle it for the
// next frame. Every field of r is overwritten — nothing decoded earlier can
// alias through, because a Record holds only value types (netip.Addr,
// time.Time, integers). On error r is zeroed so a half-decoded frame can
// never leak into a reused buffer.
//
//wire:codec Record
//vet:borrowed r b
func DecodeBinaryInto(r *Record, b []byte) error {
	if len(b) < WireSize {
		*r = Record{}
		return fmt.Errorf("%w: short frame: %d bytes", ErrBadRecord, len(b))
	}
	r.Time = unixTime(int64(binary.LittleEndian.Uint64(b[0:])))
	r.LocalIP = addrFrom16(b[8:24])
	r.LocalPort = binary.LittleEndian.Uint16(b[24:])
	r.RemoteIP = addrFrom16(b[26:42])
	r.RemotePort = binary.LittleEndian.Uint16(b[42:])
	r.PacketsSent = binary.LittleEndian.Uint64(b[44:])
	r.PacketsRcvd = binary.LittleEndian.Uint64(b[52:])
	r.BytesSent = binary.LittleEndian.Uint64(b[60:])
	r.BytesRcvd = binary.LittleEndian.Uint64(b[68:])
	if r.LocalIP.IsUnspecified() || r.RemoteIP.IsUnspecified() {
		*r = Record{}
		return fmt.Errorf("%w: unspecified address", ErrBadRecord)
	}
	return nil
}

// Writer streams records in the binary wire format onto an io.Writer,
// buffering internally. Call Flush before relying on the output.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	n   int
}

// NewWriter returns a Writer emitting onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10), buf: make([]byte, 0, WireSize)}
}

// Write encodes and buffers one record.
func (w *Writer) Write(r Record) error {
	w.buf = AppendBinary(w.buf[:0], r)
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int { return w.n }

// Flush flushes buffered frames to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams records in the binary wire format from an io.Reader.
type Reader struct {
	r   *bufio.Reader
	buf [WireSize]byte
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Read decodes the next record. It returns io.EOF at a clean end of stream
// and io.ErrUnexpectedEOF on a truncated frame.
func (r *Reader) Read() (Record, error) {
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, io.ErrUnexpectedEOF
	}
	return DecodeBinary(r.buf[:])
}

// ReadBatch decodes up to len(dst) records into the caller-owned dst and
// returns how many slots it filled. It allocates and copies nothing: each
// run of whole frames decodes via DecodeBinaryInto straight from the
// buffered reader's own buffer into dst's slots, so the caller reuses one
// batch buffer across calls (records from earlier calls must not be
// retained across reuse; copy any that are). A clean end of stream before
// the first frame returns (n, io.EOF) with n possibly positive; a truncated
// frame returns io.ErrUnexpectedEOF; a garbage frame is consumed and
// returns ErrBadRecord with the preceding good records counted in n.
//
//vet:borrowed dst
func (r *Reader) ReadBatch(dst []Record) (int, error) {
	for n := 0; n < len(dst); {
		run := min(len(dst)-n, r.r.Size()/WireSize)
		buf, err := r.r.Peek(run * WireSize)
		whole := len(buf) / WireSize
		for k := 0; k < whole; k++ {
			if derr := DecodeBinaryInto(&dst[n], buf[k*WireSize:]); derr != nil {
				//lint:allow errdrop Discard of bytes just Peeked cannot fail
				r.r.Discard((k + 1) * WireSize)
				return n, derr
			}
			n++
		}
		//lint:allow errdrop Discard of bytes just Peeked cannot fail
		r.r.Discard(whole * WireSize)
		if err != nil {
			if err == io.EOF && len(buf) == whole*WireSize {
				return n, io.EOF
			}
			return n, io.ErrUnexpectedEOF
		}
	}
	return len(dst), nil
}

// Reset redirects the Reader to a new stream, reusing its buffer — the
// per-connection pooling hook for servers.
func (r *Reader) Reset(rd io.Reader) { r.r.Reset(rd) }
