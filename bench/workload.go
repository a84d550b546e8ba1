package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"cloudgraph/internal/analytics"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/ingest"
	"cloudgraph/internal/runner"
)

// sizing is one workload's traffic mix. The four real workloads and the
// smoke test's toy variants differ only in these numbers.
type sizing struct {
	data   dataset
	window time.Duration // the daemon's -window

	// writers > 0 makes the workload a closed loop: that many saturating
	// writer connections replay the generated hour, pass after pass, each
	// pass shifted one hour later, with a barrier between passes so no
	// connection runs a window ahead.
	writers int
	// tick > 0 makes it an open loop: one writer sends one telemetry
	// minute every tick, on schedule whatever the daemon does, while the
	// second connection polls for the answers.
	tick time.Duration

	tenants int // >0: that many tagged tenants, zipf-thinned (tenant i keeps 1/(i+1))
	// preload minute windows are ingested and flushed during set-up. At
	// least one, so `QUERY <runner> latest` has an answer before polling
	// starts; query-mix preloads past the planes' 96-result memory so its
	// oldest epochs are served from disk.
	preload int
	// mix turns the second connection into a reader issuing the seeded
	// QUERY mix between poll rounds, a burst of readBurst queries every
	// readEvery; every diskEvery-th query targets an epoch evicted to disk.
	mix       bool
	diskEvery int
	// refSkip leaves one runner out of the in-process reference check.
	refSkip string
}

// minutesGenerated bounds input generation: streams longer than an hour
// reuse the generated hour shifted by whole hours.
const minutesGenerated = 60

// resultMemory is the plane's per-runner result retention (runner.Config
// .History default, which cloudgraphd does not override): epochs older
// than latest-96 are answered by queryDisk.
const resultMemory = 96

// freshnessSLO is the daemon's default -freshness-slo; a window not
// answerable within it counts as a failed operation.
const freshnessSLO = 5 * time.Second

// readBurst queries every readEvery is the query-mix reader's schedule:
// 3000 QUERY/s offered, about a quarter of what one connection completes
// back to back. A reader that queries back to back keeps the daemon busy
// for the whole interval whatever a query costs, so daemon CPU per
// ingested record then measures the length of the interval — it came out
// at 38.0–38.8 s/Mrec while the host's speed moved by 40% — and neither a
// cheaper nor a dearer read path could show in it.
const (
	readBurst = 12
	readEvery = 4 * time.Millisecond
)

// setupRepeats is how many times an untraced run sets up, reporting the
// median, so setup_s is steadier than one cold start.
const setupRepeats = 3

var workloads = map[string]sizing{
	"ingest-usvc": {data: usvc, window: time.Hour, writers: 2},
	"live-k8s":    {data: k8s, window: time.Minute, tick: 400 * time.Millisecond, preload: 1, refSkip: "summarize"},
	"tenants-8":   {data: usvc, window: time.Minute, tick: 250 * time.Millisecond, preload: 1, tenants: 8},
	"query-mix":   {data: usvc, window: time.Minute, tick: 500 * time.Millisecond, preload: 120, mix: true, diskEvery: 400},
}

// workloadOrder is the order reports list the workloads in.
var workloadOrder = []string{"ingest-usvc", "live-k8s", "tenants-8", "query-mix"}

// runnerNames are the daemon's online analyses, in QUERY order.
var runnerNames = func() []string {
	var names []string
	for _, r := range runner.DefaultRunners() {
		names = append(names, r.Name())
	}
	sort.Strings(names)
	return names
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured: the end-to-end metrics, the
// per-layer ones, and the operation tally behind failed_ops_pct.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Env       envInfo           `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the sample count behind each timing metric.
	Samples map[string]int `json:"samples"`
	Notes   []string       `json:"notes,omitempty"`

	work runWork   // what the run gave each layer, for layers.accounted_pct
	rec  *recorder // the run's spans; nil when untraced
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setTiming reports percentile p of a timing series with its sample count.
func (r *report) setTiming(name string, s samples, p float64) {
	r.set(name, s.percentile(p), "ms")
	r.Samples[name] = len(s)
}

// ops tallies attempted and failed operations: INGEST batches, QUERYs,
// freshness samples and correctness checks.
type ops struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

func (o *ops) ok(n int) {
	o.mu.Lock()
	o.attempted += n
	o.mu.Unlock()
}

func (o *ops) fail(format string, args ...any) {
	o.mu.Lock()
	o.attempted++
	o.failed++
	if len(o.notes) < 10 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// freshTracker measures seal→answer freshness for one tenant: the writer
// announces each sealing batch's due time, the poller closes the sample
// at the first round in which every runner answers at that epoch.
type freshTracker struct {
	rec     *recorder
	mu      sync.Mutex
	pending []freshWindow // epoch order
	samples samples
	newest  uint64 // newest epoch every runner is known to answer

	laggard int // poller's own: the runner last found behind, asked first
}

type freshWindow struct {
	epoch uint64
	due   time.Time
	span  int
}

func (f *freshTracker) sealing(epoch uint64, due time.Time) {
	w := freshWindow{epoch: epoch, due: due, span: f.rec.begin("freshness.window", noSpan, epoch)}
	f.mu.Lock()
	f.pending = append(f.pending, w)
	f.mu.Unlock()
}

// oldest is the window that has waited longest for its answer.
func (f *freshTracker) oldest() (freshWindow, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.pending) == 0 {
		return freshWindow{}, false
	}
	return f.pending[0], true
}

// answeredUpTo is the newest epoch every runner is known to answer.
func (f *freshTracker) answeredUpTo() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.newest
}

// poll runs one poll round over c on behalf of the oldest pending window
// and closes its sample if every runner now answers it. It reports false
// when nothing is pending.
func (f *freshTracker) poll(c *analytics.Client, rtt *samples, o *ops) (bool, error) {
	w, ok := f.oldest()
	if !ok {
		return false, nil
	}
	done, err := answered(c, w.epoch, &f.laggard, f.rec, w.span, rtt, o)
	if err != nil || !done {
		return true, err
	}
	d := time.Since(w.due)
	f.rec.end(w.span)
	f.mu.Lock()
	f.pending = f.pending[1:]
	f.samples.add(d)
	f.newest = w.epoch
	f.mu.Unlock()
	if d > freshnessSLO {
		o.fail("epoch %d answered after %v, past the %v freshness SLO", w.epoch, d, freshnessSLO)
	} else {
		o.ok(1)
	}
	return true, nil
}

// abandon fails whatever is still pending when the run ends.
func (f *freshTracker) abandon(o *ops) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, w := range f.pending {
		o.fail("epoch %d never became answerable", w.epoch)
	}
	f.pending = nil
}

// answered is one poll round: does `QUERY <runner> latest` report epoch or
// later for every runner? It asks the runner last found behind first and
// stops at the first one still behind — the round's outcome is decided —
// so waiting on the slowest analysis costs one query a round, not four,
// and the poller takes that much less of the two cores from the daemon.
func answered(c *analytics.Client, epoch uint64, laggard *int, rec *recorder, parent int, rtt *samples, o *ops) (bool, error) {
	round := rec.begin("poll.round", parent, epoch)
	defer rec.end(round)
	for k := range runnerNames {
		i := (*laggard + k) % len(runnerNames)
		start := time.Now()
		res, err := c.Query(runnerNames[i], 0)
		if err != nil {
			o.fail("QUERY %s latest: %v", runnerNames[i], err)
			return false, err
		}
		rtt.add(time.Since(start))
		o.ok(1)
		if res.Epoch < epoch {
			*laggard = i
			return false, nil
		}
	}
	return true, nil
}

// diskEntry is one (runner, epoch) of the fixed disk-query list with the
// answer captured while the epoch was still in the plane's memory.
type diskEntry struct {
	runner string
	epoch  uint64
	want   []byte
}

// state is one set-up daemon with its connections, ready to be measured.
type state struct {
	e      *env
	sz     sizing
	d      *daemon
	dir    string
	src    *stream
	a, b   *analytics.Client
	rec    *recorder
	o      *ops
	names  []string // tenant names; one "" for the untagged default tenant
	sent   []int64  // records acked per tenant, set-up included
	sentTo int      // global minutes [0, sentTo) have been sent, set-up included
	epochs uint64   // windows sealed so far (per tenant)
	disk   []diskEntry
	rtt    samples // QUERY latest round trips
	// batches are the closed loop's per-writer batches of one pass.
	batches [][][]flowlog.Record
}

func (s *state) close() {
	for _, c := range []*analytics.Client{s.a, s.b} {
		if c != nil {
			_ = c.Close() // the daemon is about to be stopped anyway
		}
	}
	if s.d != nil {
		s.d.stop()
		s.e.untrack(s.d)
	}
	_ = os.RemoveAll(s.dir) // scratch under the build directory; a leftover is harmless
}

// tenantOf is the /tenantz and TENANT name of tenant index i.
func (s *state) tenantOf(i int) string {
	if s.names[i] == "" {
		return "default"
	}
	return s.names[i]
}

// flushAll seals every tenant's open window and drains its bus over c.
func (s *state) flushAll(c *analytics.Client) error {
	for _, name := range s.names {
		if name != "" {
			if err := c.Tenant(name); err != nil {
				return err
			}
		}
		if _, err := c.Flush(); err != nil {
			return err
		}
	}
	s.epochs++
	return nil
}

// payload builds global minute m as the writer sends it: every tenant's
// thinned copy of the minute back to back (the order a chronological
// merge of equal timestamps gives), with parallel tenant tags.
func (s *state) payload(recs []flowlog.Record, tags []string, m int) ([]flowlog.Record, []string) {
	recs, tags = recs[:0], tags[:0]
	for i, name := range s.names {
		before := len(recs)
		recs = s.src.minute(recs, m, i+1)
		if name != "" {
			for range recs[before:] {
				tags = append(tags, name)
			}
		}
		s.sent[i] += int64(len(recs) - before)
	}
	s.sentTo = m + 1
	return recs, tags
}

// send ingests one minute payload in batches, timing each ack from due
// (the zero time means from its own send).
func (s *state) send(c *analytics.Client, recs []flowlog.Record, tags []string, due time.Time, ack *samples, id uint64) error {
	for off := 0; off < len(recs); off += batchSize {
		end := min(off+batchSize, len(recs))
		from := due
		if from.IsZero() {
			from = time.Now()
		}
		sp := s.rec.begin("ingest.batch", noSpan, id)
		var err error
		if len(tags) > 0 {
			err = c.IngestTagged(recs[off:end], nil, tags[off:end])
		} else {
			err = c.Ingest(recs[off:end])
		}
		s.rec.end(sp)
		if err != nil {
			s.o.fail("INGEST: %v", err)
			return err
		}
		s.o.ok(1)
		if ack != nil {
			ack.add(time.Since(from))
		}
	}
	return nil
}

// setup generates the inputs, starts a daemon on a fresh data-dir and
// brings it to the state the measured interval starts from.
func setup(e *env, sz sizing, seed int64, rec *recorder, o *ops) (*state, error) {
	minutes, err := generate(sz.data, seed, minutesGenerated)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.workDir, "run-")
	if err != nil {
		return nil, err
	}
	s := &state{e: e, sz: sz, dir: dir, src: &stream{minutes: minutes}, rec: rec, o: o, names: []string{""}}
	if sz.tenants > 0 {
		s.names = s.names[:0]
		for i := 0; i < sz.tenants; i++ {
			s.names = append(s.names, fmt.Sprintf("tenant-%02d", i)) // tenant-00 is the largest
		}
	}
	s.sent = make([]int64, len(s.names))
	if s.d, err = startDaemon(e.bin, dir, sz.window); err != nil {
		s.d = nil
		s.close()
		return nil, err
	}
	e.track(s.d)
	if s.a, err = analytics.Dial(s.d.addr); err == nil {
		s.b, err = analytics.Dial(s.d.addr)
	}
	if err == nil {
		if sz.writers > 0 {
			err = s.warmUpPass()
		} else {
			err = s.preload()
		}
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return s, nil
}

// preload ingests the first sz.preload minutes, paced so no bus consumer
// falls a queue behind and drops, captures the memory answers of the
// epochs that will be disk-only, and flushes.
func (s *state) preload() error {
	var recs []flowlog.Record
	var tags []string
	diskTop := s.sz.preload - resultMemory // epochs 1..diskTop end up disk-only
	for m := 0; m < s.sz.preload; m++ {
		recs, tags = s.payload(recs, tags, m)
		if err := s.send(s.a, recs, tags, time.Time{}, nil, uint64(m+1)); err != nil {
			return err
		}
		if m == 0 && s.sz.preload > 1 {
			// Flush the first window through, so `QUERY <runner> latest`
			// answers from here on: before any result exists it is an ERR,
			// and an ERR trips the daemon's flight recorder.
			if err := s.flushAll(s.a); err != nil {
				return err
			}
		}
		// Minute m's first record sealed epoch m. Keep the analyses within
		// 16 windows of the writer (the bus queues 64 per consumer).
		if m%8 == 0 && m >= 16 {
			if err := s.awaitEpoch(s.a, uint64(m-16)); err != nil {
				return err
			}
		}
		if m == diskTop && diskTop > 0 {
			if err := s.captureDisk(uint64(diskTop)); err != nil {
				return err
			}
		}
	}
	s.epochs = uint64(s.sz.preload - 1)
	return s.flushAll(s.a)
}

// awaitEpoch polls over c until every runner answers at epoch or later.
func (s *state) awaitEpoch(c *analytics.Client, epoch uint64) error {
	deadline := time.Now().Add(30 * time.Second)
	laggard := 0
	for {
		done, err := answered(c, epoch, &laggard, nil, noSpan, &samples{}, s.o)
		if err != nil || done {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s still behind epoch %d after 30 s", runnerNames[laggard], epoch)
		}
		time.Sleep(time.Millisecond)
	}
}

// captureDisk records the in-memory answers for every 4th epoch up to
// top, all runners: the fixed list the measured disk queries cycle
// through and are compared with.
func (s *state) captureDisk(top uint64) error {
	if err := s.awaitEpoch(s.a, top); err != nil {
		return err
	}
	for epoch := uint64(4); epoch <= top; epoch += 4 {
		for _, name := range runnerNames {
			res, err := s.a.Query(name, epoch)
			if err != nil {
				return fmt.Errorf("capturing %s@%d: %w", name, epoch, err)
			}
			s.disk = append(s.disk, diskEntry{runner: name, epoch: epoch, want: res.Result})
		}
	}
	return nil
}

// writerStats is what one writer connection measured.
type writerStats struct {
	ack     samples
	late    samples
	records int64
	lastAck time.Time
	err     error
}

// writeTicks is the open-loop writer: tick i is due at t0 + i*tick and
// sends global minute preload+i, whatever the daemon's state. Tick i>0
// carries the record that seals epoch preload+i, so it announces that
// seal to the freshness trackers first.
func (s *state) writeTicks(ticks int, t0 time.Time, trackers map[int]*freshTracker) writerStats {
	var ws writerStats
	var recs []flowlog.Record
	var tags []string
	for i := 0; i < ticks; i++ {
		m := s.sz.preload + i
		recs, tags = s.payload(recs, tags, m)
		due := t0.Add(time.Duration(i) * s.sz.tick)
		time.Sleep(time.Until(due))
		ws.late.add(time.Since(due))
		if i > 0 {
			for _, tr := range trackers {
				tr.sealing(uint64(m), due)
			}
			s.epochs++
		}
		if ws.err = s.send(s.a, recs, tags, due, &ws.ack, uint64(m+1)); ws.err != nil {
			return ws
		}
		ws.records += int64(len(recs))
	}
	ws.lastAck = time.Now()
	return ws
}

// readerStats is what the second connection measured.
type readerStats struct {
	mem, disk samples
	memWall   time.Duration // time spent in the seeded in-memory queries
	err       error
}

// read is the second connection's loop: a poll round for every watched
// tenant with a window waiting on its answer, then either the next burst
// of the seeded QUERY mix, when it is due, or a 1 ms sleep. It runs until
// stop closes, then polls on so the windows the final FLUSH drained are
// observed.
func (s *state) read(seed int64, trackers map[int]*freshTracker, stop <-chan struct{}) readerStats {
	var rs readerStats
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, 63)
	watched := make([]int, 0, len(trackers))
	for i := range trackers {
		watched = append(watched, i)
	}
	sort.Ints(watched)
	nextDisk, queries := 0, 0
	due := time.Now()
	for stopping := false; ; {
		waiting := false
		for _, i := range watched {
			tr := trackers[i]
			if _, ok := tr.oldest(); !ok {
				continue
			}
			if s.names[i] != "" {
				if rs.err = s.b.Tenant(s.names[i]); rs.err != nil {
					return rs
				}
			}
			if waiting, rs.err = tr.poll(s.b, &s.rtt, s.o); rs.err != nil {
				return rs
			}
		}
		switch {
		case stopping && !waiting:
			return rs
		case stopping:
			// Flushed, so every pending window is answerable: keep closing.
		case s.sz.mix:
			time.Sleep(time.Until(due))
			due = due.Add(readEvery)
			latest := trackers[0].answeredUpTo()
			for k := 0; k < readBurst; k++ {
				queries++
				if len(s.disk) > 0 && queries%s.sz.diskEvery == 0 {
					ent := s.disk[nextDisk%len(s.disk)]
					nextDisk++
					rs.err = s.query("query.disk", ent.runner, ent.epoch, ent.want, &rs.disk)
				} else {
					name := runnerNames[rng.Intn(len(runnerNames))]
					start := time.Now()
					rs.err = s.query("query.mem", name, latest-zipf.Uint64(), nil, &rs.mem)
					rs.memWall += time.Since(start)
				}
				if rs.err != nil {
					return rs
				}
			}
		default:
			time.Sleep(time.Millisecond)
		}
		select {
		case <-stop:
			stopping = true
		default:
		}
	}
}

// query issues one timed QUERY over the second connection and, when want
// is set, checks the answer byte for byte.
func (s *state) query(spanName, name string, epoch uint64, want []byte, lat *samples) error {
	sp := s.rec.begin(spanName, noSpan, epoch)
	start := time.Now()
	res, err := s.b.Query(name, epoch)
	lat.add(time.Since(start))
	s.rec.end(sp)
	switch {
	case err != nil:
		s.o.fail("QUERY %s %d: %v", name, epoch, err)
		return err
	case res.Epoch != epoch:
		s.o.fail("QUERY %s %d answered at epoch %d", name, epoch, res.Epoch)
	case want != nil && !bytes.Equal(res.Result, want):
		s.o.fail("QUERY %s %d from disk differs from the answer captured in memory", name, epoch)
	default:
		s.o.ok(1)
	}
	return nil
}

// passBatches cuts the generated hour into each writer's batches for one
// pass. Records are dealt to writers by the daemon's own flow-key shard
// (STATS reports its width), so every engine shard hears from exactly one
// connection, in time order: the builders deduplicate per interval and
// fold late records into the current one, so any other split would make
// the window graph depend on how the two connections happened to
// interleave, and the reference check could not hold.
func (s *state) passBatches() ([][][]flowlog.Record, error) {
	st, err := s.a.Stats()
	if err != nil {
		return nil, err
	}
	flat := make([][]flowlog.Record, s.sz.writers)
	for _, m := range s.src.minutes {
		for _, r := range m {
			w := ingest.ShardOf(r.Key(), st.Workers) % s.sz.writers
			flat[w] = append(flat[w], r)
		}
	}
	out := make([][][]flowlog.Record, s.sz.writers)
	for w, recs := range flat {
		for off := 0; off < len(recs); off += batchSize {
			out[w] = append(out[w], recs[off:min(off+batchSize, len(recs))])
		}
	}
	return out, nil
}

// shifted copies batch into scratch with its timestamps `pass` hours later.
func shifted(scratch, batch []flowlog.Record, pass int) []flowlog.Record {
	scratch = scratch[:0]
	for _, r := range batch {
		r.Time = r.Time.Add(time.Duration(pass) * time.Hour)
		scratch = append(scratch, r)
	}
	return scratch
}

// sendPass replays each writer's batches (writer 0's from index `from`)
// shifted `pass` hours later, one goroutine per connection, and returns
// when every writer has its last ack: the barrier between passes.
func (s *state) sendPass(batches [][][]flowlog.Record, from, pass int, stats []writerStats) {
	clients := []*analytics.Client{s.a, s.b}
	var wg sync.WaitGroup
	for w := range batches {
		mine := batches[w]
		if w == 0 {
			mine = mine[from:]
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &stats[w]
			scratch := make([]flowlog.Record, 0, batchSize)
			for _, batch := range mine {
				scratch = shifted(scratch, batch, pass)
				if ws.err = s.send(clients[w], scratch, nil, time.Time{}, &ws.ack, uint64(pass+1)); ws.err != nil {
					return
				}
				ws.records += int64(len(scratch))
			}
		}(w)
	}
	wg.Wait()
}

// warmUpPass is the closed loop's set-up: one unmeasured pass, flushed,
// so epoch 1 is answerable and the daemon's buffers are grown.
func (s *state) warmUpPass() error {
	batches, err := s.passBatches()
	if err != nil {
		return err
	}
	s.batches = batches
	stats := make([]writerStats, len(batches))
	s.sendPass(batches, 0, 0, stats)
	for _, ws := range stats {
		if ws.err != nil {
			return ws.err
		}
		s.sent[0] += ws.records
	}
	s.sentTo = minutesGenerated
	return s.flushAll(s.a)
}

// measured is what the measured interval produced, before the checks.
type measured struct {
	wall    time.Duration // first send → last ack
	records int64
	ack     samples
	late    samples
	lastAck time.Time
	fresh   map[int]*freshTracker
	reader  readerStats
}

// runPasses is the closed-loop measured interval: saturating passes until
// `seconds` have elapsed. Pass p's first batch seals the previous pass's
// hour; writer 0 sends it alone and polls until every runner answers at
// that epoch — one freshness sample per pass — before both writers
// replay the rest of the hour.
func (s *state) runPasses(seconds float64) (measured, error) {
	m := measured{fresh: map[int]*freshTracker{0: {rec: s.rec, newest: s.epochs}}}
	stats := make([]writerStats, len(s.batches))
	start := time.Now()
	for pass := 1; time.Since(start).Seconds() < seconds; pass++ {
		from := 0
		if pass > 1 {
			scratch := shifted(nil, s.batches[0][0], pass)
			due := time.Now()
			m.fresh[0].sealing(uint64(pass), due)
			s.epochs++
			if err := s.send(s.a, scratch, nil, time.Time{}, &stats[0].ack, uint64(pass+1)); err != nil {
				return m, err
			}
			stats[0].records += int64(len(scratch))
			for {
				if _, err := m.fresh[0].poll(s.a, &s.rtt, s.o); err != nil {
					return m, err
				}
				if _, waiting := m.fresh[0].oldest(); !waiting {
					break
				}
				if time.Since(due) > 2*freshnessSLO {
					m.fresh[0].abandon(s.o)
				}
				time.Sleep(time.Millisecond)
			}
			from = 1
		}
		s.sendPass(s.batches, from, pass, stats)
		for _, ws := range stats {
			if ws.err != nil {
				return m, ws.err
			}
		}
		s.sentTo += minutesGenerated
	}
	m.lastAck = time.Now()
	m.wall = m.lastAck.Sub(start)
	for _, ws := range stats {
		m.records += ws.records
		m.ack = append(m.ack, ws.ack...)
	}
	s.sent[0] += m.records
	return m, nil
}

// runTicks is the open-loop measured interval: the writer on its
// schedule, the second connection polling (and, for query-mix, reading).
func (s *state) runTicks(seconds float64, seed int64) (measured, error) {
	m := measured{fresh: map[int]*freshTracker{0: {rec: s.rec, newest: s.epochs}}}
	if s.sz.tenants > 1 {
		m.fresh[s.sz.tenants-1] = &freshTracker{rec: s.rec, newest: s.epochs} // the smallest tenant
	}
	ticks := max(2, int(math.Ceil(seconds/s.sz.tick.Seconds())))
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		m.reader = s.read(seed, m.fresh, stop)
	}()
	t0 := time.Now().Add(10 * time.Millisecond)
	ws := s.writeTicks(ticks, t0, m.fresh)
	m.wall, m.records, m.ack, m.late, m.lastAck = ws.lastAck.Sub(t0), ws.records, ws.ack, ws.late, ws.lastAck
	if ws.err != nil {
		close(stop)
		<-readerDone
		return m, ws.err
	}
	// Drain on the writer's connection while the second keeps polling, then
	// stop it: its last rounds observe whatever the flush drained.
	err := s.drain()
	close(stop)
	<-readerDone
	if err == nil {
		err = m.reader.err
	}
	return m, err
}

// drain flushes every tenant: the last window seals and the buses empty.
func (s *state) drain() error {
	sp := s.rec.begin("flush", noSpan, 0)
	defer s.rec.end(sp)
	return s.flushAll(s.a)
}

// measure runs the measured interval and returns once it has drained: the
// flush has returned and every runner answers at the final epoch.
func (s *state) measure(seconds float64, seed int64) (measured, error) {
	var m measured
	var err error
	if s.sz.writers > 0 {
		if m, err = s.runPasses(seconds); err == nil {
			err = s.drain()
		}
	} else {
		m, err = s.runTicks(seconds, seed)
	}
	if err != nil {
		return m, err
	}
	for i := range m.fresh {
		if s.names[i] != "" {
			if err := s.a.Tenant(s.names[i]); err != nil {
				return m, err
			}
		}
		if err := s.awaitEpoch(s.a, s.epochs); err != nil {
			return m, err
		}
	}
	return m, nil
}

// runWorkload runs one workload once and reports everything it measured.
func runWorkload(e *env, name string, sz sizing, seed int64, seconds float64, traced bool) (*report, error) {
	rep := &report{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Env: e.info,
		Metrics: make(map[string]metric), Samples: make(map[string]int),
	}
	if traced {
		rep.rec = newRecorder()
	}
	rec, o := rep.rec, &ops{}

	// Set-up, several times on untraced runs: each is a full generation,
	// daemon start and preload; the last one is the daemon measured.
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var s *state
	var setups []float64
	probe := startHostProbe()
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = setup(e, sz, seed, rec, o); err != nil {
			_, _ = probe.stop() // the set-up error is the one to report
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()
	setupSlowdown, err := probe.stop()
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(setups)/setupSlowdown, "s")
	rep.set("setup_s.raw", median(setups), "s")

	loaderCPU0, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	cpu0, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	probe = startHostProbe()
	m, err := s.measure(seconds, seed)
	drain := time.Since(m.lastAck)
	slowdown, perr := probe.stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w\ndaemon log:\n%s", name, err, s.d.logTail())
	}
	if perr != nil {
		return nil, perr
	}
	cpu1, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	loaderCPU1, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	for _, tr := range m.fresh {
		tr.abandon(o)
	}

	// Time-based gated metrics are reported at nominal host speed (see
	// hostProbe) with the measured figure beside them. An open loop's rate
	// is its schedule, not the machine's speed, and stays as measured.
	mrec := float64(m.records) / 1e6
	rate := float64(m.records) / 1e3 / m.wall.Seconds()
	rep.set("ingest_krec_per_s.raw", rate, "krec/s")
	if sz.writers > 0 {
		rate *= slowdown
	}
	rep.set("ingest_krec_per_s", rate, "krec/s")
	rep.set("cpu_s_per_mrec", (cpu1-cpu0)/mrec/slowdown, "s/Mrec")
	rep.set("cpu_s_per_mrec.raw", (cpu1-cpu0)/mrec, "s/Mrec")
	rep.set("host.slowdown", slowdown, "x")
	rep.setTiming("ingest_ack_ms_p50", m.ack, 50)
	rep.setTiming("ingest_ack_ms_p99", m.ack, 99)
	rep.setTiming("fresh_ms_p50", m.fresh[0].samples, 50)
	rep.setTiming("fresh_ms_p90", m.fresh[0].samples, 90)
	var small samples
	if tr := m.fresh[sz.tenants-1]; sz.tenants > 1 && tr != nil {
		small = tr.samples
	}
	rep.setTiming("fresh_small_ms_p50", small, 50)
	rep.setTiming("fresh_small_ms_p90", small, 90)
	qps := 0.0
	if m.reader.memWall > 0 {
		qps = float64(len(m.reader.mem)) / m.reader.memWall.Seconds()
	}
	rep.set("query_mem_qps", qps, "1/s")
	rep.Samples["query_mem_qps"] = len(m.reader.mem)
	rep.setTiming("query_mem_ms_p99", m.reader.mem, 99)
	rep.setTiming("query_disk_ms_p50", m.reader.disk, 50)
	rep.set("drain_s", drain.Seconds(), "s")
	rep.set("loadgen.cpu_s", loaderCPU1-loaderCPU0, "s")
	rep.setTiming("loadgen.late_ms_p99", m.late, 99)
	rep.set("analytics.query_round_trip_us_p50", s.rtt.percentile(50)*1e3, "us")
	rep.Samples["analytics.query_round_trip_us_p50"] = len(s.rtt)
	rep.set("loadgen.trace_spans", float64(rec.count()), "count")
	rep.set("loadgen.build_s", e.buildS, "s")

	if err := s.readDaemon(rep, m, cpu1-cpu0); err != nil {
		return nil, err
	}
	if err := s.check(rep, seed); err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed, rep.Notes = o.attempted, o.failed, o.notes
	rep.Correct = o.failed == 0
	rep.set("failed_ops_pct", 100*float64(o.failed)/float64(max(o.attempted, 1)), "%")
	return rep, nil
}
