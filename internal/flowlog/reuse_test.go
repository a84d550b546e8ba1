package flowlog

import (
	"bytes"
	"io"
	"math/rand"
	"net/netip"
	"testing"
	"time"
)

// reuseRecords builds n distinct valid records.
func reuseRecords(n int) []Record {
	rng := rand.New(rand.NewSource(11))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Time:        time.Unix(1700000000+int64(i), 0).UTC(),
			LocalIP:     netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(1 + i%250)}),
			LocalPort:   uint16(1024 + i),
			RemoteIP:    netip.AddrFrom4([4]byte{10, 1, byte(rng.Intn(4)), byte(1 + rng.Intn(250))}),
			RemotePort:  443,
			PacketsSent: uint64(rng.Intn(1000)),
			PacketsRcvd: uint64(rng.Intn(1000)),
			BytesSent:   uint64(rng.Intn(1 << 20)),
			BytesRcvd:   uint64(rng.Intn(1 << 20)),
		}
	}
	return recs
}

func encodeAll(recs []Record) []byte {
	var wire []byte
	for _, r := range recs {
		wire = AppendBinary(wire, r)
	}
	return wire
}

// TestReadBatchReuseNoAliasing is the reuse contract: records decoded into a
// buffer on an earlier ReadBatch call, then copied out, must be unaffected
// by later decodes into the same buffer. Run under -race in CI.
func TestReadBatchReuseNoAliasing(t *testing.T) {
	recs := reuseRecords(64)
	r := NewReader(bytes.NewReader(encodeAll(recs)))
	buf := make([]Record, 8) // reused across all batches
	var copies []Record
	var got int
	for {
		n, err := r.ReadBatch(buf)
		copies = append(copies, buf[:n]...) // copy out before reuse
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		// Scribble over the buffer before the next decode: if anything
		// copied out aliases it, the scribble shows up in copies.
		for i := range buf {
			buf[i] = Record{LocalIP: netip.MustParseAddr("255.255.255.255")}
		}
	}
	if got != len(recs) {
		t.Fatalf("decoded %d records, want %d", got, len(recs))
	}
	for i, c := range copies {
		if c != recs[i] {
			t.Fatalf("record %d corrupted by buffer reuse: %+v != %+v", i, c, recs[i])
		}
	}
}

// TestDecodeBinaryIntoErrorZeroes pins that a failed decode cannot leak a
// half-decoded frame into a reused slot.
func TestDecodeBinaryIntoErrorZeroes(t *testing.T) {
	var r Record
	if err := DecodeBinaryInto(&r, encodeAll(reuseRecords(1))); err != nil {
		t.Fatal(err)
	}
	if err := DecodeBinaryInto(&r, make([]byte, WireSize)); err == nil {
		t.Fatal("all-zero frame decoded")
	}
	if r != (Record{}) {
		t.Fatalf("failed decode left stale fields in reused record: %+v", r)
	}
	if err := DecodeBinaryInto(&r, []byte{1, 2, 3}); err == nil {
		t.Fatal("short frame decoded")
	}
	if r != (Record{}) {
		t.Fatalf("short frame left stale fields: %+v", r)
	}
}

// TestBatchDecodeZeroAlloc pins the tentpole's allocation claim:
// steady-state batch decode — ReadBatch into a reused buffer, and the raw
// DecodeBinaryInto — performs zero heap allocations per run. A regression
// here silently reintroduces per-record garbage on the INGEST hot path, so
// this gate fails the build rather than just skewing a benchmark.
func TestBatchDecodeZeroAlloc(t *testing.T) {
	recs := reuseRecords(256)
	wire := encodeAll(recs)
	src := bytes.NewReader(wire)
	r := NewReader(src)
	buf := make([]Record, 64)

	if avg := testing.AllocsPerRun(50, func() {
		src.Reset(wire)
		r.Reset(src)
		for {
			_, err := r.ReadBatch(buf)
			if err != nil {
				break
			}
		}
	}); avg != 0 {
		t.Fatalf("ReadBatch allocates %.1f times per stream, want 0", avg)
	}

	frame := wire[:WireSize]
	var rec Record
	if avg := testing.AllocsPerRun(1000, func() {
		if err := DecodeBinaryInto(&rec, frame); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("DecodeBinaryInto allocates %.1f times per frame, want 0", avg)
	}
}

// FuzzDecodeBinaryReuse feeds arbitrary frames through the into-style
// decoder twice over one reused record and checks it agrees byte for byte
// with the value-returning decoder, including the zero-on-error contract.
func FuzzDecodeBinaryReuse(f *testing.F) {
	f.Add(encodeAll(reuseRecords(1)), []byte{})
	f.Add(make([]byte, WireSize), encodeAll(reuseRecords(2)))
	f.Add([]byte{1, 2, 3}, []byte(nil))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var r Record
		for _, frame := range [][]byte{a, b} {
			want, wantErr := DecodeBinary(frame)
			gotErr := DecodeBinaryInto(&r, frame)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("decoder disagreement: %v vs %v", wantErr, gotErr)
			}
			if r != want {
				t.Fatalf("reused decode diverged: %+v vs %+v", r, want)
			}
		}
	})
}

// Reset redirects the Reader to a new stream, reusing its buffer, so a
// decode loop can replay one stream without allocating.
func (r *Reader) Reset(rd io.Reader) { r.r.Reset(rd) }
