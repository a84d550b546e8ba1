package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/histstore"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/runner"
	"cloudgraph/internal/store"
	"cloudgraph/internal/timeline"
)

// The layers pass times calls into each package's public functions, from
// outside, on seeded inputs: one goroutine, in-process, no daemon. Record
// -rate layers run on the `fine` dataset (many records, tiny graph);
// window-rate layers on the minute windows of both: `coarse` (few
// records, the larger graph) under the plain row names, `fine` under a
// .usvc suffix.

const (
	fineMinutes   = 20 // ≈230K usvc records
	coarseMinutes = 10 // k8spaas minute windows; the last one stays in plane memory
	diskDepth     = 8  // the epoch the disk QUERY row replays up to
)

// layerRun accumulates the pass's metrics.
type layerRun struct {
	rec     *recorder
	metrics map[string]metric
	samples map[string]int
}

// span times one call into a layer inside a span named after its row.
func (l *layerRun) span(name string, fn func()) time.Duration {
	sp := l.rec.begin("layer."+name, noSpan, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	l.rec.end(sp)
	return d
}

// set reports d spread over n work units, in unit (scale nanoseconds each).
func (l *layerRun) set(name, unit string, scale float64, n int, d time.Duration) {
	l.metrics[name] = metric{Value: float64(d.Nanoseconds()) / scale / float64(n), Unit: unit}
	l.samples[name] = n
}

func (l *layerRun) time(name, unit string, scale float64, n int, fn func()) {
	l.set(name, unit, scale, n, l.span(name, fn))
}

func (l *layerRun) perRec(name string, n int, fn func()) { l.time(name, "ns", 1, n, fn) }
func (l *layerRun) perWindow(name string, n int, fn func()) {
	l.time(name, "ms", 1e6, n, fn)
}

// minuteWindows folds each minute into its own unfrozen window graph, the
// form a shard windower hands the engine.
func minuteWindows(minutes [][]flowlog.Record) []*graph.Graph {
	var out []*graph.Graph
	w := core.NewWindower(time.Minute, graph.BuilderOptions{})
	w.OnComplete = func(g *graph.Graph) { out = append(out, g) }
	for _, m := range minutes {
		for _, r := range m {
			w.Add(r)
		}
	}
	w.Flush()
	return out
}

// windowLayers times every window-rate layer on the minutes' windows and
// reports the rows under suffix. It returns the frozen windows, the
// history store they were appended to (epochs 1..n) and runner instances
// advanced over all but the last window — what the plane-query rows need.
func (l *layerRun) windowLayers(suffix, dir string, minutes [][]flowlog.Record) ([]*graph.Graph, *histstore.Store, []runner.Runner, error) {
	n := len(minutes)
	row := func(name string) string { return name + suffix }

	// core seal: close, merge, freeze, publish, drain — per minute window.
	eng := core.NewEngine(core.Config{Window: time.Minute, Shards: 2,
		Consumers: []core.ConsumerSpec{{Name: "noop", Fn: func(uint64, *graph.Graph) {}}}})
	var seal time.Duration
	for _, m := range minutes {
		eng.Ingest(m)
		seal += l.span(row("core.seal_ms_per_window"), func() { eng.Flush() })
	}
	eng.Close()
	l.set(row("core.seal_ms_per_window"), "ms", 1e6, n, seal)

	// graph: CSR freeze and the roll-up merge.
	windows := minuteWindows(minutes)
	l.perWindow(row("graph.freeze_ms_per_window"), n, func() {
		for _, g := range windows {
			g.Freeze()
		}
	})
	var csrBytes, edges int64
	for _, g := range windows {
		csrBytes += g.MemBytes()
		edges += int64(g.NumDirectedEdges())
	}
	l.metrics[row("graph.csr_bytes_per_edge")] = metric{Value: float64(csrBytes) / float64(edges), Unit: "B"}
	rollup := graph.New(graph.FacetIP)
	l.perWindow(row("graph.merge_ms_per_window"), n, func() {
		for _, g := range windows {
			rollup.Merge(g)
		}
	})
	tl := timeline.New(timeline.Config{})
	l.perWindow(row("timeline.append_ms_per_window"), n, func() {
		for i, g := range windows {
			tl.Append(uint64(i+1), g)
		}
	})

	// store: the graph codec under every durable append and disk read.
	encoded := make([][]byte, n)
	l.perWindow(row("store.encode_ms_per_window"), n, func() {
		for i, g := range windows {
			encoded[i] = store.EncodeGraph(g)
		}
	})
	var kb float64
	for _, b := range encoded {
		kb += float64(len(b)) / 1024
	}
	l.metrics[row("store.kb_per_window")] = metric{Value: kb / float64(n), Unit: "KB"}
	var err error
	l.perWindow(row("store.decode_ms_per_window"), n, func() {
		for _, b := range encoded {
			if _, derr := store.DecodeGraph(b); derr != nil {
				err = derr
			}
		}
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("layers: decode graph: %w", err)
	}

	// histstore: append with fsync (the daemon's policy), point read, and
	// the replay behind recovery and every disk QUERY.
	hs, err := histstore.Open(dir, histstore.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	l.perWindow(row("histstore.append_ms_per_window"), n, func() {
		for i, g := range windows {
			if aerr := hs.Append(uint64(i+1), g); aerr != nil {
				err = aerr
			}
		}
	})
	l.perWindow(row("histstore.get_ms"), n, func() {
		for i := range windows {
			if _, gerr := hs.Get(uint64(i + 1)); gerr != nil {
				err = gerr
			}
		}
	})
	l.perWindow(row("histstore.replay_ms_per_window"), n, func() {
		if rerr := hs.Replay(func(uint64, *graph.Graph) error { return nil }); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		_ = hs.Close() // the histstore error is the one to report
		return nil, nil, nil, fmt.Errorf("layers: histstore: %w", err)
	}

	// runners: OnSnapshot plus the marshal of the result, as Plane.step
	// does; one window is held back for the plane to analyze online.
	rs := runner.DefaultRunners()
	for _, r := range rs {
		l.perWindow(row("runner."+r.Name()+".ms_per_window"), n-1, func() {
			for i, g := range windows[:n-1] {
				r.OnSnapshot(uint64(i+1), g)
				if _, merr := json.Marshal(r.Result()); merr != nil {
					err = merr
				}
			}
		})
	}
	if err != nil {
		_ = hs.Close() // the marshal error is the one to report
		return nil, nil, nil, fmt.Errorf("layers: runner result: %w", err)
	}
	return windows, hs, rs, nil
}

// runLayers is the whole pass.
func runLayers(e *env, seed int64, rec *recorder) (*layerRun, error) {
	l := &layerRun{rec: rec, metrics: make(map[string]metric), samples: make(map[string]int)}
	fineMin, err := generate(e.fine, seed, fineMinutes)
	if err != nil {
		return nil, err
	}
	coarseMin, err := generate(e.coarse, seed, coarseMinutes)
	if err != nil {
		return nil, err
	}
	var recs []flowlog.Record
	for _, m := range fineMin {
		recs = append(recs, m...)
	}
	n := len(recs)
	batches := func(fn func([]flowlog.Record)) {
		for off := 0; off < n; off += batchSize {
			fn(recs[off:min(off+batchSize, n)])
		}
	}

	// flowlog: the wire codec both ends of every INGEST pay.
	wire := make([]byte, 0, n*flowlog.WireSize)
	l.perRec("flowlog.encode_ns_per_rec", n, func() {
		for _, r := range recs {
			wire = flowlog.AppendBinary(wire, r)
		}
	})
	rd := flowlog.NewReader(bytes.NewReader(wire))
	buf := make([]flowlog.Record, batchSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.perRec("flowlog.decode_ns_per_rec", n, func() {
		for got := 0; got < n && err == nil; {
			var k int
			k, err = rd.ReadBatch(buf[:min(batchSize, n-got)])
			got += k
		}
	})
	if err != nil {
		return nil, fmt.Errorf("layers: decode: %w", err)
	}
	runtime.ReadMemStats(&after)
	l.metrics["flowlog.decode_allocs_per_rec"] = metric{Value: float64(after.Mallocs-before.Mallocs) / float64(n), Unit: "count"}

	// graph.Builder behind one windower: the fold itself.
	l.perRec("graph.build_ns_per_rec", n, func() {
		w := core.NewWindower(time.Hour, graph.BuilderOptions{})
		for _, r := range recs {
			w.Add(r)
		}
	})
	// core: the same fold through the engine at 1 and 2 shards; the
	// difference is scatter plus merge.
	for _, shards := range []int{1, 2} {
		eng := core.NewEngine(core.Config{Window: time.Hour, Shards: shards})
		l.perRec(fmt.Sprintf("core.ingest_ns_per_rec.shards%d", shards), n, func() { batches(eng.Ingest) })
		eng.Close()
	}
	// realm: the engine again behind tenant admission and COGS metering.
	mgr, err := realm.NewManager(realm.Config{Engine: core.Config{Window: time.Hour, Shards: 2}})
	if err != nil {
		return nil, err
	}
	def := mgr.Default()
	l.perRec("realm.ingest_ns_per_rec", n, func() {
		batches(func(b []flowlog.Record) { def.IngestTraced(b, nil) })
	})
	if err := mgr.Close(); err != nil {
		return nil, err
	}
	const grants = 200_000
	sched := realm.NewScheduler(4, 0)
	l.perRec("realm.sched_ns_per_grant", grants, func() {
		for i := 0; i < grants; i++ {
			sched.Run("tenant", 1, func() {})
		}
	})

	// Window-rate layers at both graph sizes.
	dir, err := os.MkdirTemp(e.workDir, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	_, fineHist, _, err := l.windowLayers(".usvc", filepath.Join(dir, "fine"), fineMin)
	if err != nil {
		return nil, err
	}
	if err := fineHist.Close(); err != nil {
		return nil, err
	}
	windows, hs, online, err := l.windowLayers("", filepath.Join(dir, "coarse"), coarseMin)
	if err != nil {
		return nil, err
	}
	defer hs.Close()

	// Plane.Query: a plane built on the advanced runners analyzes the last
	// coarse window online, keeps only that result in memory (History 1),
	// and serves every older epoch from the history store.
	nw := len(windows)
	plane := runner.New(runner.Config{Runners: online, History: 1})
	plane.SetHistory(hs, nil)
	plane.Restore(uint64(nw), windows[nw-1])
	const memQueries = 2000
	l.time("runner.query_mem_us", "us", 1e3, memQueries, func() {
		for i := 0; i < memQueries; i++ {
			if _, _, qerr := plane.Query(runnerNames[i%len(runnerNames)], uint64(nw)); qerr != nil {
				err = qerr
			}
		}
	})
	l.perWindow(fmt.Sprintf("runner.query_disk_ms.depth%d", diskDepth), len(runnerNames), func() {
		for _, name := range runnerNames {
			if _, _, qerr := plane.Query(name, uint64(min(diskDepth, nw-1))); qerr != nil {
				err = qerr
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("layers: plane query: %w", err)
	}
	return l, nil
}

// runWork is the work one run gave the layers, counted by the loader.
type runWork struct {
	records   float64 // records acked in the measured interval
	windows   float64 // windows sealed in it, over all tenants
	queries   float64 // QUERYs answered from plane memory (polls included)
	diskDepth float64 // sum of the epochs the disk QUERYs replayed up to
	tenants   bool    // ingest went through realm admission with tags
	daemonCPU float64 // daemon CPU seconds over the interval
}

// accountedPct is ROADMAP 1(b)'s check that the per-layer rows sum to
// the end-to-end figure: each layer's cost times the work the run gave
// it, as a share of the daemon CPU the run actually burned. suffix picks
// the graph size the window-rate rows are read at.
func accountedPct(l map[string]metric, w runWork, suffix string) float64 {
	v := func(name string) float64 { return l[name].Value }
	ingest := v("core.ingest_ns_per_rec.shards2")
	if w.tenants {
		ingest = v("realm.ingest_ns_per_rec")
	}
	var runners float64
	for _, name := range runnerNames {
		runners += v("runner." + name + ".ms_per_window" + suffix)
	}
	perWindow := v("core.seal_ms_per_window"+suffix) + v("timeline.append_ms_per_window"+suffix) +
		v("histstore.append_ms_per_window"+suffix) + runners
	// A disk QUERY replays every window up to its epoch through one runner.
	perDepth := v("histstore.replay_ms_per_window"+suffix) + runners/float64(len(runnerNames))
	cpu := w.records*(v("flowlog.decode_ns_per_rec")+ingest)*1e-9 +
		w.windows*perWindow*1e-3 +
		w.queries*v("runner.query_mem_us")*1e-6 +
		w.diskDepth*perDepth*1e-3
	return 100 * cpu / w.daemonCPU
}
