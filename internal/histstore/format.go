// Package histstore is the durable, epoch-indexed graph history store —
// the repository's one on-disk window format — and the crash-recoverable
// backing of the live analysis plane. The paper
// motivates it directly — operators need "up-to-date views while also
// being able to do historical analysis such as 'what changed?' or 'what
// happened during that (past) event?'" (§1) — and at cloud scale that
// history must survive the process and span days, not the plane's
// in-memory retention.
//
// Layout on disk: a directory of segment files plus one MANIFEST. Each
// segment holds length-prefixed, CRC-framed window records (graph bytes
// from the internal/store codec), and sealed segments carry a sparse
// epoch index block so point lookups touch one frame chain, not the file.
// A background compactor rolls minute-window segments whose data has aged
// past the retention horizon into hour roll-up segments via
// graph.FoldRollup — the one roll-up bucket rule — and retires
// the originals under an atomic manifest swap. Opening the store replays
// the manifest, rolls forward interrupted compactions, adopts segments
// orphaned by a crash, and truncates any torn tail record, so a kill -9
// at any byte loses at most the record being written.
package histstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"time"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/store"
)

// ErrCorrupt is returned for structurally invalid segment data that is not
// a recoverable torn tail (bad header magic, foreign files).
var ErrCorrupt = errors.New("histstore: corrupt segment")

// ErrNotFound is returned by point lookups for epochs the store has never
// held (or no longer holds at window resolution after compaction).
var ErrNotFound = errors.New("histstore: epoch not found")

// Segment kinds. Window segments hold one record per completed engine
// window; rollup segments hold one record per compacted hour bucket.
const (
	kindWindow = byte(0)
	kindRollup = byte(1)
)

var (
	segMagic     = [8]byte{'c', 'g', 's', 'e', 'g', '0', '0', '1'}
	trailerMagic = [8]byte{'c', 'g', 's', 'e', 'g', 'i', 'd', 'x'}
)

const (
	segVersion     = 1
	segHeaderSize  = 16 // magic(8) + version u16 + kind u8 + reserved(5)
	frameHeadSize  = 8  // bodyLen u32 + crc32 u32
	recPrefixSize  = 32 // epochLo u64 + epochHi u64 + startUnix i64 + endUnix i64
	trailerSize    = 16 // trailerMagic(8) + indexOff u64
	indexEntrySize = 32 // epoch u64 + startUnix i64 + endUnix i64 + offset u64
	maxRecordBody  = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum is the store's frame checksum: CRC-32C over the frame body.
func checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// segHeader builds the 16-byte segment file header.
func segHeader(kind byte) []byte {
	h := make([]byte, segHeaderSize)
	copy(h, segMagic[:])
	binary.LittleEndian.PutUint16(h[8:], segVersion)
	h[10] = kind
	return h
}

// parseSegHeader validates a segment header and returns its kind.
func parseSegHeader(h []byte) (kind byte, err error) {
	if len(h) < segHeaderSize || [8]byte(h[:8]) != segMagic {
		return 0, ErrCorrupt
	}
	if binary.LittleEndian.Uint16(h[8:]) != segVersion {
		return 0, ErrCorrupt
	}
	kind = h[10]
	if kind != kindWindow && kind != kindRollup {
		return 0, ErrCorrupt
	}
	return kind, nil
}

// record is one decoded frame: a window (epochLo == epochHi) or an hour
// roll-up covering the compacted epoch range [epochLo, epochHi].
type record struct {
	epochLo, epochHi uint64
	start, end       int64 // unix seconds, mirrored from the graph for index scans
	g                *graph.Graph
}

// encodeRecord appends one CRC-framed record to dst and returns it. The
// frame is:
//
//	u32 bodyLen
//	u32 crc32c(body)
//	body: u64 epochLo, u64 epochHi, i64 startUnix, i64 endUnix,
//	      graph bytes (store.EncodeGraph — the v2 window codec)
//
// The times duplicate the graph's Start/End so index scans and time
// lookups decode a 32-byte prefix instead of the whole graph. The body is
// encoded in place after a reserved header, so a reused dst makes the
// append allocation-free. Every record written is v2, compaction's
// roll-ups and residue included, so compacting history written by an
// older version as v1 migrates it; decodeRecord reads either version, each
// record marking its own.
func encodeRecord(dst []byte, epochLo, epochHi uint64, g *graph.Graph) []byte {
	head := len(dst)
	dst = append(dst, make([]byte, 8)...)
	dst = binary.LittleEndian.AppendUint64(dst, epochLo)
	dst = binary.LittleEndian.AppendUint64(dst, epochHi)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.Start.Unix()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.End.Unix()))
	dst = store.AppendGraph(dst, g)
	body := dst[head+8:]
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.Checksum(body, crcTable))
	return dst
}

// decodeRecordPrefix splits a validated frame body into its prefix fields
// without decoding the graph.
func decodeRecordPrefix(body []byte) (r record, graphBytes []byte, err error) {
	if len(body) < recPrefixSize {
		return record{}, nil, ErrCorrupt
	}
	r.epochLo = binary.LittleEndian.Uint64(body)
	r.epochHi = binary.LittleEndian.Uint64(body[8:])
	r.start = int64(binary.LittleEndian.Uint64(body[16:]))
	r.end = int64(binary.LittleEndian.Uint64(body[24:]))
	if r.epochHi < r.epochLo {
		return record{}, nil, ErrCorrupt
	}
	return r, body[recPrefixSize:], nil
}

// decodeRecord decodes a full frame body including the graph.
func decodeRecord(body []byte) (record, error) {
	r, gb, err := decodeRecordPrefix(body)
	if err != nil {
		return record{}, err
	}
	g, err := store.DecodeGraph(gb)
	if err != nil {
		return record{}, ErrCorrupt
	}
	// The prefix times are authoritative for the index; keep the graph's
	// own (they round-trip identically through the codec).
	r.g = g
	return r, nil
}

// indexEntry locates one indexed record inside a segment file.
type indexEntry struct {
	epoch      uint64 // epochLo of the record at offset
	start, end int64  // unix seconds of that record
	offset     int64  // file offset of the frame header
}

// encodeIndex serializes a sparse index block:
//
//	u32 count, count × {u64 epoch, i64 startUnix, i64 endUnix, u64 offset},
//	u32 crc32c(count + entries)
func encodeIndex(entries []indexEntry) []byte {
	buf := make([]byte, 0, 8+len(entries)*indexEntrySize)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint64(buf, e.epoch)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.end))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.offset))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// decodeIndex is the inverse of encodeIndex.
func decodeIndex(b []byte) ([]indexEntry, error) {
	if len(b) < 8 {
		return nil, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(b))
	want := 4 + n*indexEntrySize
	if n < 0 || len(b) != want+4 {
		return nil, ErrCorrupt
	}
	if crc32.Checksum(b[:want], crcTable) != binary.LittleEndian.Uint32(b[want:]) {
		return nil, ErrCorrupt
	}
	entries := make([]indexEntry, n)
	for i := range entries {
		off := 4 + i*indexEntrySize
		entries[i] = indexEntry{
			epoch:  binary.LittleEndian.Uint64(b[off:]),
			start:  int64(binary.LittleEndian.Uint64(b[off+8:])),
			end:    int64(binary.LittleEndian.Uint64(b[off+16:])),
			offset: int64(binary.LittleEndian.Uint64(b[off+24:])),
		}
	}
	return entries, nil
}

// indexStride is the sparse-index sampling rate of a sealed segment.
const indexStride = 8

// sparsify keeps every indexStride-th entry plus the last, the shape that
// makes a sealed segment's index a few cache lines while point lookups
// scan at most indexStride-1 frames forward.
func sparsify(entries []indexEntry) []indexEntry {
	if len(entries) <= 1 {
		return entries
	}
	out := entries[:0:0]
	for i, e := range entries {
		if i%indexStride == 0 || i == len(entries)-1 {
			out = append(out, e)
		}
	}
	return out
}

// rollupBucket is the roll-up granularity compaction folds windows into.
const rollupBucket = time.Hour

// bucketStart truncates t (unix seconds) to its roll-up bucket start.
func bucketStart(unix int64) int64 {
	return graph.RollupStart(time.Unix(unix, 0), rollupBucket).Unix()
}
