package histstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
)

// Options configures a Store. The zero value is usable: 64 windows per
// segment, index stride 8, 24h retention at window resolution, fsync on
// every append. Compaction folds into 1h roll-up buckets.
type Options struct {
	// SegmentWindows is how many window records a segment holds before it
	// is sealed and a fresh one started.
	SegmentWindows int
	// IndexStride is the sparse-index sampling rate: a sealed segment
	// indexes every strideth record (plus the last), so a point lookup
	// scans at most stride-1 frames past an index hit.
	IndexStride int
	// Retention is how long window-resolution records are kept before the
	// compactor may fold them into hour roll-ups. It is measured against
	// the data (newest window End), not the wall clock, so replayed
	// historical streams compact deterministically.
	Retention time.Duration
	// NoSync skips the per-append fsync (tests and benchmarks).
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentWindows <= 0 {
		o.SegmentWindows = 64
	}
	if o.IndexStride <= 0 {
		o.IndexStride = 8
	}
	if o.Retention <= 0 {
		o.Retention = 24 * time.Hour
	}
	return o
}

// Store is the durable epoch-indexed graph history. All methods are safe
// for concurrent use. One process owns a directory at a time; the store
// does no cross-process locking.
type Store struct {
	dir  string
	opts Options

	mu            sync.Mutex
	man           *manifest
	segs          []*segmentInfo // epoch order; the active segment, if any, is last
	active        *segmentWriter // nil when no unsealed segment is open
	activeEntries []indexEntry   // full (non-sparse) index of the active segment
	lastEpoch     uint64         // greatest epoch ever appended (or recovered)
	encBuf        []byte
	compacting    bool
	closed        bool
	// pendTraces carries trace contexts of appended windows, keyed by
	// roll-up bucket start, so the compactor can record histstore.compact
	// spans against the traces that flowed into each bucket. Decoded
	// graphs carry no Traces (never serialized), so this is the only
	// bridge from append-time sampling to compaction.
	pendTraces map[int64][]trace.Context

	tracer *trace.Tracer

	telAppended   *telemetry.Counter
	telReplayed   *telemetry.Counter
	telCompacts   *telemetry.Counter
	telReclaimed  *telemetry.Counter
	telCompactSec *telemetry.Histogram
	recoveryMilli atomic.Int64 // last Replay duration, for the recovery gauge
}

// maxTracesPerBucket bounds pendTraces growth per roll-up bucket.
const maxTracesPerBucket = 8

// Open opens (or creates) the store rooted at dir and runs recovery:
// roll forward a manifest whose renames were interrupted, drop rows whose
// files are gone, delete stray temporaries and orphans left by an
// interrupted compaction, adopt a segment created just before a crash,
// re-seal sealed segments with unreadable indexes, and truncate any torn
// tail off the active segment. After Open every byte in the directory is
// accounted for and every record is readable.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, pendTraces: make(map[int64][]trace.Context)}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover reconciles the manifest against the directory. See Open.
func (s *Store) recover() error {
	man, err := loadManifest(s.dir)
	if err != nil {
		return err
	}
	// Pass 1: roll forward interrupted renames, drop rows for files that
	// are simply gone.
	kept := man.Segments[:0]
	for _, row := range man.Segments {
		path := segPath(s.dir, row.File)
		if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
			if _, terr := os.Stat(path + ".tmp"); terr == nil {
				// The manifest was saved before the tmp→final rename; the
				// crash landed between them. Finish the rename.
				if err := os.Rename(path+".tmp", path); err != nil {
					return err
				}
				if err := syncDir(s.dir); err != nil {
					return err
				}
			} else {
				continue // row without a file: the segment never made it
			}
		} else if err != nil {
			return err
		}
		kept = append(kept, row)
	}
	man.Segments = kept

	// Pass 2: sweep the directory for temporaries and orphans.
	inManifest := make(map[string]bool, len(man.Segments))
	for _, row := range man.Segments {
		inManifest[row.File] = true
	}
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	maxEpoch := uint64(0)
	for _, row := range man.Segments {
		maxEpoch = max(maxEpoch, row.MaxEpoch)
	}
	var orphanActive string // adopted segment, loaded in pass 3
	for _, de := range dirents {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Leftover of an interrupted write (manifest never pointed at
			// the final name, or pass 1 already rolled it forward).
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return err
			}
		case strings.HasSuffix(name, ".seg") && !inManifest[name]:
			// A segment the manifest does not know. Either the crash hit
			// between creating a fresh active segment and saving the
			// manifest (its epochs extend past everything known: adopt
			// it), or it is a retired input of a completed compaction
			// whose delete never ran (its epochs are covered: drop it).
			res, err := scanSegment(segPath(s.dir, name))
			if err != nil || res.kind != kindWindow || len(res.entries) == 0 ||
				res.entries[0].epoch <= maxEpoch || orphanActive != "" {
				if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
					return err
				}
				continue
			}
			orphanActive = name
		}
	}

	// Pass 3: load each surviving segment's index; re-seal or truncate as
	// needed so every file ends exactly at valid bytes.
	for _, row := range man.Segments {
		kind, err := kindByte(row.Kind)
		if err != nil {
			return err
		}
		path := segPath(s.dir, row.File)
		if row.Sealed {
			if entries, size, err := readSealedIndex(path); err == nil {
				s.segs = append(s.segs, &segmentInfo{
					file: row.File, kind: kind, sealed: true,
					minEpoch: row.MinEpoch, maxEpoch: row.MaxEpoch,
					minStart: row.MinStart, maxEnd: row.MaxEnd,
					records: row.Records, bytes: size, index: entries,
				})
				continue
			}
			// Trailer or index unreadable (torn seal): recover the records
			// by scan and seal again below.
		}
		if err := s.recoverUnsealed(row.File, kind, path); err != nil {
			return err
		}
	}
	if orphanActive != "" {
		if err := s.recoverUnsealed(orphanActive, kindWindow, segPath(s.dir, orphanActive)); err != nil {
			return err
		}
	}

	sort.SliceStable(s.segs, func(i, j int) bool { return s.segs[i].minEpoch < s.segs[j].minEpoch })
	for _, si := range s.segs {
		s.lastEpoch = max(s.lastEpoch, si.maxEpoch)
		// An adopted orphan was created after the manifest's NextID was
		// saved; advance past every surviving file so the next roll cannot
		// collide with it.
		if id, ok := segID(si.file); ok && id >= man.NextID {
			man.NextID = id + 1
		}
	}
	s.man = man
	s.man.Segments = nil
	for _, si := range s.segs {
		s.man.Segments = append(s.man.Segments, manifestRow(si))
	}
	return saveManifest(s.dir, s.man)
}

// recoverUnsealed scans a segment missing its index (never sealed, or a
// torn seal), truncates any torn tail, and seals it in place. Recovery
// seals everything it touches — simpler than resuming appends into a
// half-written file, and a segment is at most SegmentWindows records
// short, so the only cost is an earlier roll. Empty segments are removed.
func (s *Store) recoverUnsealed(file string, kind byte, path string) error {
	res, err := scanSegment(path)
	if err != nil {
		return err
	}
	if len(res.entries) == 0 {
		return os.Remove(path)
	}
	si := newSegmentInfo(file, kind, res.entries, res.validEnd, false, s.opts.IndexStride)
	w, err := openSegmentForAppend(path, res.validEnd)
	if err != nil {
		return err
	}
	s.segs = append(s.segs, si)
	s.sealNow(si, w, res.entries)
	return nil
}

// sealNow writes the index block and trailer onto a recovered segment and
// marks it sealed; on failure the segment stays readable unsealed.
func (s *Store) sealNow(si *segmentInfo, w *segmentWriter, entries []indexEntry) {
	size, err := w.seal(sparsify(entries, s.opts.IndexStride))
	if err != nil {
		// Leave the segment unsealed in memory; records up to validEnd
		// remain readable and the next recovery retries the seal.
		//lint:allow errdrop recovery seal is advisory; the records are already durable and rescanned next open
		_ = w.close()
		return
	}
	si.sealed = true
	si.bytes = size
	si.index = sparsify(entries, s.opts.IndexStride)
}

// Trace attaches tr for histstore.append / histstore.compact spans.
// Nil-safe; call before concurrent use.
func (s *Store) Trace(tr *trace.Tracer) { s.tracer = tr }

// Instrument registers the store's metrics, each carrying labels (a realm
// passes its tenant). Call once at wiring time, before Replay, so the
// recovery pass is counted.
func (s *Store) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("cloudgraph_histstore_segments", "segment files in the history store", func() float64 {
		st := s.Stats()
		return float64(st.Segments)
	}, labels...)
	reg.GaugeFunc("cloudgraph_histstore_bytes", "bytes on disk across history segments", func() float64 {
		st := s.Stats()
		return float64(st.Bytes)
	}, labels...)
	reg.GaugeFunc("cloudgraph_histstore_recovery_seconds", "duration of the startup recovery replay", func() float64 {
		return float64(s.recoveryMilli.Load()) / 1e3
	}, labels...)
	s.telAppended = reg.Counter("cloudgraph_histstore_windows_appended_total", "window records appended to the history store", labels...)
	s.telReplayed = reg.Counter("cloudgraph_histstore_windows_replayed_total", "window records replayed from the history store, by recovery and by disk QUERYs", labels...)
	s.telCompacts = reg.Counter("cloudgraph_histstore_compactions_total", "completed compaction passes", labels...)
	s.telReclaimed = reg.Counter("cloudgraph_histstore_bytes_reclaimed_total", "on-disk bytes reclaimed by compaction", labels...)
	s.telCompactSec = reg.Histogram("cloudgraph_histstore_compaction_seconds", "time folding window segments into roll-ups", telemetry.DurBuckets, labels...)
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	Segments      int   // segment files (window + rollup)
	Bytes         int64 // valid bytes on disk across segments
	WindowRecords int   // records at window resolution
	RollupRecords int   // compacted roll-up records
}

// Stats returns current totals.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Stats
	for _, si := range s.segs {
		st.Segments++
		st.Bytes += si.bytes
		if si.kind == kindWindow {
			st.WindowRecords += si.records
		} else {
			st.RollupRecords += si.records
		}
	}
	return st
}

// LastEpoch returns the greatest epoch the store holds (0 when empty).
func (s *Store) LastEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastEpoch
}

// Epochs returns the store's full epoch range, roll-ups included.
func (s *Store) Epochs() (lo, hi uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, si := range s.segs {
		if si.records == 0 {
			continue
		}
		if !ok || si.minEpoch < lo {
			lo = si.minEpoch
		}
		hi = max(hi, si.maxEpoch)
		ok = true
	}
	return lo, hi, ok
}

// WindowEpochs returns the epoch range still held at window resolution
// (replayable); epochs below it survive only inside roll-ups.
func (s *Store) WindowEpochs() (lo, hi uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, si := range s.segs {
		if si.kind != kindWindow || si.records == 0 {
			continue
		}
		if !ok || si.minEpoch < lo {
			lo = si.minEpoch
		}
		hi = max(hi, si.maxEpoch)
		ok = true
	}
	return lo, hi, ok
}

// Append writes one completed window under its engine epoch. Epochs must
// be strictly increasing; the append is fsynced unless Options.NoSync.
func (s *Store) Append(epoch uint64, g *graph.Graph) error {
	var spanStart time.Time
	if s.tracer != nil && len(g.Traces) > 0 {
		spanStart = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("histstore: closed")
	}
	if epoch <= s.lastEpoch {
		return fmt.Errorf("histstore: epoch %d not after %d", epoch, s.lastEpoch)
	}
	if s.active == nil {
		if err := s.rollLocked(); err != nil {
			return err
		}
	}
	s.encBuf = encodeRecord(s.encBuf[:0], epoch, epoch, g)
	off, err := s.active.appendFrame(s.encBuf)
	if err != nil {
		return err
	}
	if !s.opts.NoSync {
		if err := s.active.sync(); err != nil {
			return err
		}
	}
	si := s.segs[len(s.segs)-1]
	ent := indexEntry{epoch: epoch, start: g.Start.Unix(), end: g.End.Unix(), offset: off}
	s.activeEntries = append(s.activeEntries, ent)
	if si.records == 0 {
		si.minEpoch, si.minStart = epoch, ent.start
	}
	si.maxEpoch = epoch
	si.maxEnd = max(si.maxEnd, ent.end)
	si.records++
	si.bytes = s.active.off
	si.index = s.activeEntries
	s.lastEpoch = epoch
	s.telAppended.Add(1)
	if len(g.Traces) > 0 {
		bk := bucketStart(ent.start)
		if tcs := s.pendTraces[bk]; len(tcs) < maxTracesPerBucket {
			s.pendTraces[bk] = append(tcs, g.Traces...)
		}
	}
	if si.records >= s.opts.SegmentWindows {
		if err := s.sealActiveLocked(); err != nil {
			return err
		}
	}
	if s.tracer != nil && len(g.Traces) > 0 {
		d := time.Since(spanStart)
		note := fmt.Sprintf("epoch=%d seg=%s bytes=%d", epoch, si.file, len(s.encBuf))
		for _, tc := range g.Traces {
			s.tracer.Record(tc, "histstore.append", spanStart, d, note)
		}
	}
	return nil
}

// rollLocked opens a fresh active window segment. Caller holds s.mu.
func (s *Store) rollLocked() error {
	name := segName(s.man.NextID)
	s.man.NextID++
	w, err := createSegment(segPath(s.dir, name), kindWindow)
	if err != nil {
		return err
	}
	si := &segmentInfo{file: name, kind: kindWindow, bytes: segHeaderSize}
	s.segs = append(s.segs, si)
	s.active = w
	s.activeEntries = s.activeEntries[:0]
	return s.saveManifestLocked()
}

// sealActiveLocked seals the active segment and persists the manifest.
// Caller holds s.mu.
func (s *Store) sealActiveLocked() error {
	si := s.segs[len(s.segs)-1]
	size, err := s.active.seal(sparsify(s.activeEntries, s.opts.IndexStride))
	if err != nil {
		return err
	}
	si.sealed = true
	si.bytes = size
	si.index = sparsify(s.activeEntries, s.opts.IndexStride)
	s.active = nil
	s.activeEntries = nil
	return s.saveManifestLocked()
}

// saveManifestLocked regenerates the manifest from in-memory segment
// state and writes it atomically. Caller holds s.mu.
func (s *Store) saveManifestLocked() error {
	s.man.Segments = s.man.Segments[:0]
	for _, si := range s.segs {
		s.man.Segments = append(s.man.Segments, manifestRow(si))
	}
	return saveManifest(s.dir, s.man)
}

// Get returns the graph recorded for epoch: the window appended under it,
// or, once compaction has folded that window away, the hour roll-up whose
// epoch range covers it. ErrNotFound when the store never held the epoch.
func (s *Store) Get(epoch uint64) (*graph.Graph, error) {
	s.mu.Lock()
	var target *segmentInfo
	var ent indexEntry
	var haveEnt bool
	for _, si := range s.segs {
		if si.records == 0 || epoch < si.minEpoch || epoch > si.maxEpoch {
			continue
		}
		target = si
		ent, haveEnt = si.seekEntry(epoch)
		break
	}
	var next int64 // offset bounding the forward scan; 0 = scan one record
	if target != nil && haveEnt {
		next = s.scanBoundLocked(target, ent)
	}
	s.mu.Unlock()
	if target == nil || !haveEnt {
		return nil, ErrNotFound
	}
	f, err := os.Open(segPath(s.dir, target.file))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	off := ent.offset
	for off <= next {
		rec, nextOff, err := readRecordAt(f, off)
		if err != nil {
			return nil, err
		}
		if rec.epochLo <= epoch && epoch <= rec.epochHi {
			return rec.g, nil
		}
		if rec.epochLo > epoch {
			break
		}
		off = nextOff
	}
	return nil, ErrNotFound
}

// scanBoundLocked returns the offset of the last frame a forward scan
// from ent may need to read: the next sparse index entry (exclusive gaps
// are impossible — sparsify keeps the last record). Caller holds s.mu.
func (s *Store) scanBoundLocked(si *segmentInfo, ent indexEntry) int64 {
	i := sort.Search(len(si.index), func(i int) bool { return si.index[i].offset > ent.offset })
	if i == len(si.index) {
		return ent.offset
	}
	return si.index[i].offset
}

// EpochAt resolves a wall-clock instant to the epoch recorded for it: the
// window (preferred) or roll-up record whose [Start, End) covers t.
func (s *Store) EpochAt(t time.Time) (uint64, bool) {
	unix := t.Unix()
	for _, wantKind := range []byte{kindWindow, kindRollup} {
		if e, ok := s.epochAtKind(unix, wantKind); ok {
			return e, true
		}
	}
	return 0, false
}

func (s *Store) epochAtKind(unix int64, kind byte) (uint64, bool) {
	s.mu.Lock()
	var target *segmentInfo
	var ent indexEntry
	for _, si := range s.segs {
		if si.kind != kind || si.records == 0 || unix < si.minStart || unix >= si.maxEnd {
			continue
		}
		// Last index entry starting at or before t.
		i := sort.Search(len(si.index), func(i int) bool { return si.index[i].start > unix })
		if i == 0 {
			continue
		}
		target, ent = si, si.index[i-1]
		break
	}
	var next int64
	if target != nil {
		next = s.scanBoundLocked(target, ent)
	}
	s.mu.Unlock()
	if target == nil {
		return 0, false
	}
	f, err := os.Open(segPath(s.dir, target.file))
	if err != nil {
		return 0, false
	}
	defer f.Close()
	off := ent.offset
	for off <= next {
		rec, nextOff, err := readRecordPrefixAt(f, off)
		if err != nil {
			return 0, false
		}
		if rec.start <= unix && unix < rec.end {
			if rec.epochHi > rec.epochLo {
				return rec.epochHi, true // roll-up: newest member epoch
			}
			return rec.epochLo, true
		}
		if rec.start > unix {
			return 0, false
		}
		off = nextOff
	}
	return 0, false
}

// Replay streams every window-resolution record to fn in epoch order
// and records the pass duration as the recovery gauge. Records
// already folded into roll-ups are not replayed — they predate any
// in-memory retention worth rebuilding.
func (s *Store) Replay(fn func(epoch uint64, g *graph.Graph) error) error {
	start := time.Now()
	if err := s.ReplayUpTo(^uint64(0), fn); err != nil {
		return err
	}
	s.recoveryMilli.Store(time.Since(start).Milliseconds())
	return nil
}

// ReplayUpTo is Replay bounded to epochs <= limit, without touching the
// recovery gauge: disk QUERYs replay through it on every request.
func (s *Store) ReplayUpTo(limit uint64, fn func(epoch uint64, g *graph.Graph) error) error {
	type span struct {
		path    string
		records int
	}
	s.mu.Lock()
	var spans []span
	for _, si := range s.segs {
		if si.kind != kindWindow || si.records == 0 || si.minEpoch > limit {
			continue
		}
		spans = append(spans, span{path: segPath(s.dir, si.file), records: si.records})
	}
	s.mu.Unlock()
	replayed := int64(0)
	for _, sp := range spans {
		err := func() error {
			f, err := os.Open(sp.path)
			if err != nil {
				return err
			}
			defer f.Close()
			off := int64(segHeaderSize)
			for i := 0; i < sp.records; i++ {
				rec, nextOff, err := readRecordAt(f, off)
				if err != nil {
					return err
				}
				if rec.epochLo > limit {
					return nil
				}
				if err := fn(rec.epochLo, rec.g); err != nil {
					return err
				}
				replayed++
				off = nextOff
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	s.telReplayed.Add(replayed)
	return nil
}

// Close seals nothing (the active segment recovers by scan) but flushes
// and releases the active file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active != nil {
		w := s.active
		s.active = nil
		return w.close()
	}
	return nil
}
