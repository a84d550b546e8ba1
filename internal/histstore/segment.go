package histstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// segmentInfo is the in-memory state of one segment file: its manifest
// row plus the (sparse) epoch index used to serve lookups.
type segmentInfo struct {
	file               string // basename inside the store directory
	kind               byte
	sealed             bool
	minEpoch, maxEpoch uint64
	minStart, maxEnd   int64 // unix seconds over the segment's records
	records            int
	bytes              int64 // valid bytes (header + frames [+ index + trailer when sealed])
	index              []indexEntry
}

// scanResult is what a full segment scan recovers: every valid record's
// index entry plus the byte offset where validity ends.
type scanResult struct {
	kind     byte
	entries  []indexEntry
	validEnd int64 // offset just past the last valid frame
	torn     bool  // bytes existed past validEnd that did not frame+checksum
}

// scanSegment reads a segment file front to back, validating each frame's
// length and CRC, and stops at the first byte that does not parse — the
// torn-tail contract: a file truncated or garbage-extended mid-record
// yields exactly the records before the tear, never an error. Only a
// missing or foreign header is ErrCorrupt.
func scanSegment(path string) (scanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResult{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return scanResult{}, err
	}
	size := st.Size()
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return scanResult{}, ErrCorrupt
	}
	kind, err := parseSegHeader(hdr[:])
	if err != nil {
		return scanResult{}, err
	}
	res := scanResult{kind: kind, validEnd: segHeaderSize}
	br := newOffsetReader(f, segHeaderSize)
	lastEpoch := uint64(0)
	for {
		off := br.offset
		var fh [frameHeadSize]byte
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			res.torn = err != io.EOF || off < size
			// A sealed segment's index block and trailer live past the last
			// frame; they parse as a torn tail here by design — the caller
			// reading via the trailer never scans, and a scan recovering a
			// half-sealed segment correctly treats the partial index as
			// disposable bytes.
			return res, nil
		}
		n := int64(binary.LittleEndian.Uint32(fh[:4]))
		crc := binary.LittleEndian.Uint32(fh[4:])
		if n < recPrefixSize || n > maxRecordBody || off+frameHeadSize+n > size {
			res.torn = true
			return res, nil
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			res.torn = true
			return res, nil
		}
		if checksum(body) != crc {
			res.torn = true
			return res, nil
		}
		rec, _, err := decodeRecordPrefix(body)
		if err != nil {
			res.torn = true
			return res, nil
		}
		// Epochs are strictly increasing within a segment; a checksummed
		// frame that regresses is a replayed stale copy, not history —
		// treat it as the tear.
		if rec.epochLo <= lastEpoch {
			res.torn = true
			return res, nil
		}
		lastEpoch = rec.epochHi
		res.entries = append(res.entries, indexEntry{
			epoch: rec.epochLo, start: rec.start, end: rec.end, offset: off,
		})
		res.validEnd = br.offset
	}
}

// readSealedIndex loads a sealed segment's index via its trailer. It
// returns ErrCorrupt when the trailer or index block does not validate —
// callers fall back to scanSegment.
func readSealedIndex(path string) ([]indexEntry, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := st.Size()
	if size < segHeaderSize+trailerSize {
		return nil, 0, ErrCorrupt
	}
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, 0, ErrCorrupt
	}
	if [8]byte(tr[:8]) != trailerMagic {
		return nil, 0, ErrCorrupt
	}
	idxOff := int64(binary.LittleEndian.Uint64(tr[8:]))
	if idxOff < segHeaderSize || idxOff >= size-trailerSize {
		return nil, 0, ErrCorrupt
	}
	blk := make([]byte, size-trailerSize-idxOff)
	if _, err := f.ReadAt(blk, idxOff); err != nil {
		return nil, 0, ErrCorrupt
	}
	entries, err := decodeIndex(blk)
	if err != nil {
		return nil, 0, err
	}
	return entries, size, nil
}

// readRecordAt reads and decodes the frame starting at off, returning the
// record and the offset just past it.
func readRecordAt(f *os.File, off int64) (record, int64, error) {
	var fh [frameHeadSize]byte
	if _, err := f.ReadAt(fh[:], off); err != nil {
		return record{}, 0, ErrCorrupt
	}
	n := int64(binary.LittleEndian.Uint32(fh[:4]))
	if n < recPrefixSize || n > maxRecordBody {
		return record{}, 0, ErrCorrupt
	}
	body := make([]byte, n)
	if _, err := f.ReadAt(body, off+frameHeadSize); err != nil {
		return record{}, 0, ErrCorrupt
	}
	if checksum(body) != binary.LittleEndian.Uint32(fh[4:]) {
		return record{}, 0, ErrCorrupt
	}
	rec, err := decodeRecord(body)
	if err != nil {
		return record{}, 0, err
	}
	return rec, off + frameHeadSize + n, nil
}

// readRecordPrefixAt reads only a frame's 32-byte record prefix — enough
// to match epochs and times during index-guided forward scans.
func readRecordPrefixAt(f *os.File, off int64) (record, int64, error) {
	var fh [frameHeadSize]byte
	if _, err := f.ReadAt(fh[:], off); err != nil {
		return record{}, 0, ErrCorrupt
	}
	n := int64(binary.LittleEndian.Uint32(fh[:4]))
	if n < recPrefixSize || n > maxRecordBody {
		return record{}, 0, ErrCorrupt
	}
	var pre [recPrefixSize]byte
	if _, err := f.ReadAt(pre[:], off+frameHeadSize); err != nil {
		return record{}, 0, ErrCorrupt
	}
	rec, _, err := decodeRecordPrefix(pre[:])
	if err != nil {
		return record{}, 0, err
	}
	return rec, off + frameHeadSize + n, nil
}

// newSegmentInfo derives a segmentInfo from scan entries.
func newSegmentInfo(file string, kind byte, entries []indexEntry, bytes int64, sealed bool) *segmentInfo {
	si := &segmentInfo{file: file, kind: kind, sealed: sealed, records: len(entries), bytes: bytes}
	if len(entries) > 0 {
		si.minEpoch = entries[0].epoch
		si.maxEpoch = entries[len(entries)-1].epoch
		si.minStart = entries[0].start
		for _, e := range entries {
			if e.end > si.maxEnd {
				si.maxEnd = e.end
			}
		}
	}
	si.index = sparsify(entries)
	return si
}

// seekEntry returns the index entry with the greatest epoch <= target, or
// false when every indexed epoch is greater.
func (si *segmentInfo) seekEntry(target uint64) (indexEntry, bool) {
	i := sort.Search(len(si.index), func(i int) bool { return si.index[i].epoch > target })
	if i == 0 {
		return indexEntry{}, false
	}
	return si.index[i-1], true
}

// segmentWriter appends CRC-framed records to the active segment file.
type segmentWriter struct {
	f    *os.File
	path string
	buf  []byte
	off  int64 // next write offset == current valid size
}

// createSegment starts a fresh segment file with the given header kind.
func createSegment(path string, kind byte) (*segmentWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(segHeader(kind)); err != nil {
		//lint:allow errdrop best-effort cleanup; the Write error is the one the caller needs
		f.Close()
		return nil, err
	}
	return &segmentWriter{f: f, path: path, off: segHeaderSize}, nil
}

// openSegmentForAppend reopens an existing (possibly torn) segment for
// appending, truncating it to validEnd first so the new record lands
// exactly where the valid prefix stops.
func openSegmentForAppend(path string, validEnd int64) (*segmentWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validEnd); err != nil {
		//lint:allow errdrop best-effort cleanup; the Truncate error is the one the caller needs
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		//lint:allow errdrop best-effort cleanup; the Seek error is the one the caller needs
		f.Close()
		return nil, err
	}
	return &segmentWriter{f: f, path: path, off: validEnd}, nil
}

// appendFrame writes one pre-encoded frame and returns its offset.
func (w *segmentWriter) appendFrame(frame []byte) (int64, error) {
	off := w.off
	if _, err := w.f.Write(frame); err != nil {
		return 0, err
	}
	w.off += int64(len(frame))
	return off, nil
}

// seal appends the sparse index block and trailer, fsyncs, and closes the
// file. After seal the segment is immutable.
func (w *segmentWriter) seal(entries []indexEntry) (int64, error) {
	idxOff := w.off
	blk := encodeIndex(entries)
	trailer := make([]byte, 0, trailerSize)
	trailer = append(trailer, trailerMagic[:]...)
	trailer = binary.LittleEndian.AppendUint64(trailer, uint64(idxOff))
	if _, err := w.f.Write(blk); err != nil {
		return 0, err
	}
	if _, err := w.f.Write(trailer); err != nil {
		return 0, err
	}
	w.off += int64(len(blk) + len(trailer))
	if err := w.f.Sync(); err != nil {
		return 0, err
	}
	return w.off, w.f.Close()
}

// sync flushes appended records to stable storage.
func (w *segmentWriter) sync() error { return w.f.Sync() }

// close closes without sealing (the segment stays active on disk).
func (w *segmentWriter) close() error {
	if err := w.f.Sync(); err != nil {
		//lint:allow errdrop the Sync error is the one the caller needs; Close still releases the fd
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// offsetReader tracks the absolute file offset of a buffered reader.
type offsetReader struct {
	r      io.Reader
	offset int64
}

func newOffsetReader(r io.Reader, start int64) *offsetReader {
	return &offsetReader{r: r, offset: start}
}

func (o *offsetReader) Read(p []byte) (int, error) {
	n, err := o.r.Read(p)
	o.offset += int64(n)
	return n, err
}

// segPath joins the store directory with a segment basename.
func segPath(dir, file string) string { return filepath.Join(dir, file) }

// segName formats a segment basename from its manifest id.
func segName(id uint64) string { return fmt.Sprintf("seg-%08d.seg", id) }

// segID parses the manifest id back out of a segment basename.
func segID(name string) (uint64, bool) {
	var id uint64
	if _, err := fmt.Sscanf(name, "seg-%d.seg", &id); err != nil {
		return 0, false
	}
	return id, true
}
