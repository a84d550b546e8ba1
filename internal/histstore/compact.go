package histstore

import (
	"os"
	"sort"
	"time"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/trace"
)

// CompactStats summarizes one compaction pass.
type CompactStats struct {
	SegmentsIn  int   // sealed window segments consumed
	RecordsIn   int   // window records consumed
	Rollups     int   // roll-up records produced
	Residue     int   // window records rewritten (incomplete buckets)
	BytesBefore int64 // on-disk bytes of the consumed segments
	BytesAfter  int64 // on-disk bytes of the produced segments
}

// Compact folds sealed window segments whose data has aged past the
// retention horizon into hour roll-up records with the one roll-up
// bucket rule (graph.RollupStart keys, graph.FoldRollup accumulation),
// and retires the inputs under an atomic manifest swap. The horizon is
// data-relative: cutoff = newest window End − Retention, so a bucket
// compacts only once no future window can land in it. Records in still-open buckets are rewritten into a residue window
// segment and stay replayable.
//
// The heavy streaming merge runs without the store lock (sealed segments
// are immutable); only the final swap locks. A reader that raced the swap
// may find a retired file gone and report an error for that one lookup —
// the next try sees the roll-up.
func (s *Store) Compact() (CompactStats, error) {
	var st CompactStats
	s.mu.Lock()
	if s.closed || s.compacting {
		s.mu.Unlock()
		return st, nil
	}
	s.compacting = true
	var cands []*segmentInfo
	var newestEnd int64
	activeMin := int64(-1) // oldest record still in an unsealed segment
	for _, si := range s.segs {
		if si.kind != kindWindow || si.records == 0 {
			continue
		}
		newestEnd = max(newestEnd, si.maxEnd)
		if si.sealed {
			cands = append(cands, si)
		} else if activeMin < 0 || si.minStart < activeMin {
			activeMin = si.minStart
		}
	}
	rollupID, residueID := s.man.NextID, s.man.NextID+1
	s.man.NextID += 2
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
	}()

	cutoff := newestEnd - int64(s.opts.Retention/time.Second)
	// A bucket is complete only when no unsealed segment can still hold a
	// member: cap the horizon at the active segment's bucket boundary.
	if activeMin >= 0 {
		cutoff = min(cutoff, bucketStart(activeMin))
	}
	// Trim candidates to those that contribute at least one complete
	// bucket; a segment whose every record is inside the horizon stays.
	trimmed := cands[:0]
	for _, si := range cands {
		if bucketStart(si.minStart)+int64(rollupBucket/time.Second) <= cutoff {
			trimmed = append(trimmed, si)
		}
	}
	cands = trimmed
	if len(cands) == 0 {
		return st, nil
	}

	start := time.Now()
	c := &compaction{s: s, cutoff: cutoff, stats: &st, rollupID: rollupID, residueID: residueID}
	defer c.cleanup()
	for _, si := range cands {
		st.SegmentsIn++
		st.BytesBefore += si.bytes
		if err := c.consumeSegment(segPath(s.dir, si.file), si.records); err != nil {
			return st, err
		}
	}
	if err := c.flushBucket(); err != nil {
		return st, err
	}
	newSegs, err := c.sealOutputs()
	if err != nil {
		return st, err
	}

	// Swap: manifest first (naming the final files), then the renames it
	// promises, then retire the inputs. A crash anywhere lands in a state
	// recover() rolls forward or sweeps.
	s.mu.Lock()
	retained := s.segs[:0:0]
	retired := make(map[*segmentInfo]bool, len(cands))
	for _, si := range cands {
		retired[si] = true
	}
	for _, si := range s.segs {
		if !retired[si] {
			retained = append(retained, si)
		}
	}
	s.segs = append(append([]*segmentInfo{}, newSegs...), retained...)
	sort.SliceStable(s.segs, func(i, j int) bool { return s.segs[i].minEpoch < s.segs[j].minEpoch })
	err = s.saveManifestLocked()
	if err == nil {
		for _, si := range newSegs {
			err = os.Rename(segPath(s.dir, si.file)+".tmp", segPath(s.dir, si.file))
			if err != nil {
				break
			}
		}
	}
	if err == nil {
		err = syncDir(s.dir)
	}
	if err == nil {
		for si := range retired {
			if rerr := os.Remove(segPath(s.dir, si.file)); rerr != nil && err == nil {
				err = rerr
			}
		}
	}
	spans := c.takeSpansLocked()
	s.mu.Unlock()
	if err != nil {
		return st, err
	}
	for _, si := range newSegs {
		st.BytesAfter += si.bytes
	}
	d := time.Since(start)
	s.telCompacts.Add(1)
	if rec := st.BytesBefore - st.BytesAfter; rec > 0 {
		s.telReclaimed.Add(rec)
	}
	s.telCompactSec.Observe(d.Seconds())
	if s.tracer != nil {
		for _, sp := range spans {
			for _, tc := range sp.traces {
				s.tracer.Record(tc, "histstore.compact", start, d, sp.note)
			}
		}
	}
	return st, nil
}

// StartCompactor runs Compact every interval on a background goroutine
// until the returned stop function is called.
func (s *Store) StartCompactor(every time.Duration) (stop func()) {
	if every <= 0 {
		every = time.Minute
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if _, err := s.Compact(); err != nil {
					s.tracer.Trip("histstore", "compaction failed: "+err.Error())
				}
			}
		}
	}()
	var once func()
	once = func() {
		close(done)
		<-finished
		once = func() {}
	}
	return func() { once() }
}

// compaction is the streaming state of one Compact pass.
type compaction struct {
	s         *Store
	cutoff    int64
	stats     *CompactStats
	rollupID  uint64 // reserved manifest id for the roll-up output
	residueID uint64 // reserved manifest id for the residue output

	bucket   *graph.Graph // in-progress roll-up accumulator
	bucketLo uint64       // first member epoch
	bucketHi uint64       // last member epoch
	buckets  []int64      // flushed bucket keys, for compact spans

	rollup  *outSeg
	residue *outSeg
	encBuf  []byte
}

// outSeg is one compaction output being written under a .tmp name.
type outSeg struct {
	w       *segmentWriter
	entries []indexEntry
	kind    byte
}

// consumeSegment streams one sealed window segment's records into the
// roll-up accumulator or the residue output.
func (c *compaction) consumeSegment(path string, records int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	off := int64(segHeaderSize)
	for i := 0; i < records; i++ {
		rec, nextOff, err := readRecordAt(f, off)
		if err != nil {
			return err
		}
		off = nextOff
		c.stats.RecordsIn++
		k := bucketStart(rec.g.Start.Unix())
		if k+int64(rollupBucket/time.Second) > c.cutoff {
			// Bucket still inside the horizon: keep at window resolution.
			if err := c.writeOut(&c.residue, kindWindow, rec.epochLo, rec.epochHi, rec.g); err != nil {
				return err
			}
			c.stats.Residue++
			continue
		}
		if c.bucket != nil && k != c.bucket.Start.Unix() {
			if err := c.flushBucket(); err != nil {
				return err
			}
		}
		if c.bucket == nil {
			c.bucketLo = rec.epochLo
		}
		c.bucket = graph.FoldRollup(c.bucket, rec.g, rollupBucket)
		c.bucketHi = rec.epochHi
	}
	return nil
}

// flushBucket seals the in-progress roll-up accumulator into the roll-up
// output segment.
func (c *compaction) flushBucket() error {
	if c.bucket == nil {
		return nil
	}
	g := c.bucket
	c.bucket = nil
	if err := c.writeOut(&c.rollup, kindRollup, c.bucketLo, c.bucketHi, g); err != nil {
		return err
	}
	c.stats.Rollups++
	c.buckets = append(c.buckets, g.Start.Unix())
	return nil
}

// writeOut appends one record to an output segment, creating it lazily
// under its .tmp name.
func (c *compaction) writeOut(slot **outSeg, kind byte, lo, hi uint64, g *graph.Graph) error {
	if *slot == nil {
		id := c.rollupID
		if kind == kindWindow {
			id = c.residueID
		}
		w, err := createSegment(segPath(c.s.dir, segName(id))+".tmp", kind)
		if err != nil {
			return err
		}
		*slot = &outSeg{w: w, kind: kind}
	}
	o := *slot
	c.encBuf = encodeRecord(c.encBuf[:0], lo, hi, g)
	off, err := o.w.appendFrame(c.encBuf)
	if err != nil {
		return err
	}
	o.entries = append(o.entries, indexEntry{epoch: lo, start: g.Start.Unix(), end: g.End.Unix(), offset: off})
	return nil
}

// sealOutputs seals the produced segments and returns their infos, named
// for their final (post-rename) files, in epoch order.
func (c *compaction) sealOutputs() ([]*segmentInfo, error) {
	var out []*segmentInfo
	for _, o := range []*outSeg{c.rollup, c.residue} {
		if o == nil {
			continue
		}
		id := c.rollupID
		if o.kind == kindWindow {
			id = c.residueID
		}
		size, err := o.w.seal(sparsify(o.entries, c.s.opts.IndexStride))
		if err != nil {
			return nil, err
		}
		si := newSegmentInfo(segName(id), o.kind, o.entries, size, true, c.s.opts.IndexStride)
		out = append(out, si)
	}
	c.rollup, c.residue = nil, nil
	return out, nil
}

// cleanup removes output temporaries after a failed pass.
func (c *compaction) cleanup() {
	for _, o := range []*outSeg{c.rollup, c.residue} {
		if o == nil {
			continue
		}
		//lint:allow errdrop best-effort cleanup of a failed pass; recover() sweeps leftovers anyway
		o.w.f.Close()
		//lint:allow errdrop best-effort cleanup of a failed pass; recover() sweeps leftovers anyway
		os.Remove(o.w.path)
	}
}

// compactSpan pairs a flushed bucket's trace contexts with a span note.
type compactSpan struct {
	traces []trace.Context
	note   string
}

// takeSpansLocked pops the pending trace contexts of every flushed
// bucket. Caller holds s.mu.
func (c *compaction) takeSpansLocked() []compactSpan {
	var out []compactSpan
	for _, k := range c.buckets {
		if tcs := c.s.pendTraces[k]; len(tcs) > 0 {
			out = append(out, compactSpan{
				traces: tcs,
				note:   "bucket=" + time.Unix(k, 0).UTC().Format(time.RFC3339),
			})
		}
		delete(c.s.pendTraces, k)
	}
	return out
}
