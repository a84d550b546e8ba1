package runner

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
	"cloudgraph/internal/segment"
	"cloudgraph/internal/summarize"
	"cloudgraph/internal/trace"
)

var t0 = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)

// seededStream replays the determinism-test cluster: a seeded
// microservice bench with a port scan injected mid-hour.
func seededStream(t *testing.T) []flowlog.Record {
	t.Helper()
	c, err := cluster.New(cluster.MicroserviceBench(0.2))
	if err != nil {
		t.Fatal(err)
	}
	c.AddAttack(cluster.PortScan{
		AttackerRole: "frontend",
		TargetRole:   "redis",
		PortsPerMin:  40,
		Start:        t0.Add(10 * time.Minute),
		Duration:     10 * time.Minute,
	})
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("cluster emitted no records")
	}
	return recs
}

// runOnline pushes the stream through a sharded engine with the plane's
// consumers on the fan-out bus — the cloudgraphd path.
func runOnline(t *testing.T, recs []flowlog.Record, window time.Duration, tr *trace.Tracer) *Plane {
	t.Helper()
	p := New(Config{Trace: tr})
	e := core.NewEngine(core.Config{
		Window:    window,
		Shards:    4,
		Consumers: p.Consumers(),
		Trace:     tr,
	})
	defer e.Close()
	const batch = 512
	for i := 0; i < len(recs); i += batch {
		end := min(i+batch, len(recs))
		if tr != nil {
			// Out-of-band contexts, like a traced collection fabric: the
			// analyses must not see any difference.
			tcs := make([]trace.Context, end-i)
			for j := range tcs {
				tcs[j] = tr.Sample()
			}
			e.IngestTraced(recs[i:end], tcs)
		} else {
			e.Ingest(recs[i:end])
		}
	}
	e.Flush()
	return p
}

// runBatch drives the same runners through Plane.Replay — the
// cmd/experiments path.
func runBatch(recs []flowlog.Record, window time.Duration, tr *trace.Tracer) *Plane {
	p := New(Config{Trace: tr})
	p.Replay(recs, ReplayOptions{Window: window})
	return p
}

// comparePlanes asserts both planes retain byte-identical results for
// every analysis at every epoch.
func comparePlanes(t *testing.T, label string, a, b *Plane, epochs uint64) {
	t.Helper()
	for _, name := range a.Runners() {
		_, newest := a.Epochs(name)
		if newest != epochs {
			t.Fatalf("%s: analysis %q reached epoch %d, want %d", label, name, newest, epochs)
		}
		for ep := uint64(1); ep <= epochs; ep++ {
			_, ra, err := a.Query(name, ep)
			if err != nil {
				t.Fatalf("%s: %s@%d (first plane): %v", label, name, ep, err)
			}
			_, rb, err := b.Query(name, ep)
			if err != nil {
				t.Fatalf("%s: %s@%d (second plane): %v", label, name, ep, err)
			}
			if string(ra) != string(rb) {
				t.Errorf("%s: %s@%d diverges:\n  a: %s\n  b: %s", label, name, ep, ra, rb)
			}
		}
	}
}

// TestOnlineBatchEquivalence pins the plane's central promise: the online
// runners — behind a 4-shard engine and the concurrent consumer bus —
// produce byte-identical per-epoch results to the batch Replay path over
// the same seeded stream, and turning tracing on changes nothing.
func TestOnlineBatchEquivalence(t *testing.T) {
	recs := seededStream(t)
	const window = 5 * time.Minute

	online := runOnline(t, recs, window, nil)
	batch := runBatch(recs, window, nil)
	_, epochs := online.Epochs("segment")
	if epochs < 10 {
		t.Fatalf("stream produced %d epochs; equivalence needs a real sequence", epochs)
	}
	comparePlanes(t, "online-vs-batch", online, batch, epochs)

	// The timeline views must agree too: same latest epoch, same window
	// count.
	_, eo := online.Timeline().Epochs()
	_, eb := batch.Timeline().Epochs()
	if no, nb := online.Timeline().Len(), batch.Timeline().Len(); eo != eb || no != nb {
		t.Fatalf("timelines diverge: online epoch %d (%d win), batch epoch %d (%d win)", eo, no, eb, nb)
	}

	// Tracing on must not perturb any result byte. Sample 1-in-101 so the
	// recorder retains whole journeys instead of churning its trace cap.
	tr := trace.New(trace.Options{SampleEvery: 101, Seed: 7, MaxTraces: 1 << 16})
	traced := runOnline(t, recs, window, tr)
	comparePlanes(t, "traced-vs-untraced", traced, batch, epochs)

	// And the traced run must actually have recorded analysis spans — the
	// journey now extends past the store into the plane.
	found := false
	for _, id := range tr.Recorder().TraceIDs() {
		for _, sp := range tr.Recorder().Trace(id) {
			if sp.Stage == "analysis.segment" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no analysis.segment span recorded with tracing on")
	}
}

// stalledPolicyPlane drives the stream through a 4-shard engine into a
// default plane whose policy consumer stalls on its first window behind a
// one-slot queue, so the bus drops windows for it while the other three
// consumers run ahead; once they have analysed every window published
// before the flush, policy is released and the two groups race on the
// shared memos for the last windows. Ingest waits for policy to hold the
// first window before publishing more, so that window is never the one
// dropped and policy learns its baseline where the solo runner does. watch,
// when set, runs repeatedly while the others advance.
func stalledPolicyPlane(t *testing.T, recs []flowlog.Record, window time.Duration, watch func(*Plane)) *Plane {
	t.Helper()
	p := New(Config{})
	release, holding := make(chan struct{}), make(chan struct{})
	specs := p.Consumers()
	for i := range specs {
		if specs[i].Name != "analysis.policy" {
			continue
		}
		fn, stalled := specs[i].Fn, false
		specs[i].Buffer = 1
		specs[i].Fn = func(epoch uint64, g *graph.Graph) {
			if !stalled {
				stalled = true
				close(holding)
				<-release
			}
			fn(epoch, g)
		}
	}
	e := core.NewEngine(core.Config{Window: window, Shards: 4, Consumers: specs})
	defer e.Close()
	// Released first on every exit, a failing one included, so Close can
	// drain the stalled consumer.
	unstall := sync.OnceFunc(func() { close(release) })
	defer unstall()
	for i, held := 0, false; i < len(recs); i += 512 {
		e.Ingest(recs[i:min(i+512, len(recs))])
		if !held && e.Epoch() > 0 {
			<-holding
			held = true
		}
	}
	published := e.Epoch()
	if published < 4 {
		t.Fatalf("only %d windows published before the flush; nothing to drop", published)
	}
	caughtUp := func() bool {
		for _, name := range []string{"segment", "summarize", "counterfactual"} {
			if _, newest := p.Epochs(name); newest != published {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(time.Minute); !caughtUp(); time.Sleep(time.Millisecond) {
		if watch != nil {
			watch(p)
		}
		if time.Now().After(deadline) {
			t.Fatalf("the unstalled consumers did not reach epoch %d", published)
		}
	}
	unstall()
	e.Flush()
	return p
}

// assertMatchesSolo requires the bus to have dropped windows for policy and
// every answer the plane retained to equal the same analysis built solo —
// no shared memo — over the same stream, byte for byte.
func assertMatchesSolo(t *testing.T, p *Plane, recs []flowlog.Record, window time.Duration) {
	t.Helper()
	solo := New(Config{Runners: []Runner{
		NewSegment(segment.StrategyJaccardLouvain, segment.Options{}),
		NewSummarize(summarize.AnomalyOptions{}),
		NewCounterfactual(0, 0.8, 10),
		NewPolicyChurn(segment.StrategyJaccardLouvain, segment.Options{}),
	}})
	solo.Replay(recs, ReplayOptions{Window: window})

	p.mu.RLock()
	retained := map[string][]uint64{}
	for name, order := range p.order {
		retained[name] = append([]uint64(nil), order...)
	}
	p.mu.RUnlock()
	if len(retained["policy"]) >= len(retained["segment"]) {
		t.Fatalf("policy retained %d epochs, segment %d: the bus dropped nothing", len(retained["policy"]), len(retained["segment"]))
	}
	for name, epochs := range retained {
		for _, ep := range epochs {
			_, got, err := p.Query(name, ep)
			if err != nil {
				t.Fatal(err)
			}
			_, want, err := solo.Query(name, ep)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s@%d diverges from the solo runner:\n  shared: %s\n  solo:   %s", name, ep, got, want)
			}
		}
	}
}

// TestSharedSegmentationUnderDrops pins the segment/policy memo under the
// bus's drop-oldest policy (stalledPolicyPlane): every answer retained
// must equal solo runners byte for byte, and the memo must end holding
// only the latest window.
func TestSharedSegmentationUnderDrops(t *testing.T) {
	recs := seededStream(t)
	const window = 5 * time.Minute
	p := stalledPolicyPlane(t, recs, window, nil)
	assertMatchesSolo(t, p, recs, window)

	seg, pol := p.runners[0].(*SegmentRunner), p.runners[3].(*PolicyChurnRunner)
	if seg.memo == nil || seg.memo != pol.memo {
		t.Fatal("segment and policy runners do not share a memo")
	}
	if latest := p.Timeline().Latest(); seg.memo.cur == nil || seg.memo.cur.g != latest {
		t.Fatal("the memo does not hold the latest window")
	}
}

// held returns the windows whose views the memo retains.
func (m *viewMemo) held() []*graph.Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*graph.Graph
	for _, e := range m.entries {
		if e != nil {
			out = append(out, e.g)
		}
	}
	return out
}

// TestViewMemoKeepsTwoMostRecent pins the memo's reuse rule: a window
// among the last two asked for gets the view already built, whichever slot
// holds it, and a third window evicts the least recently asked.
func TestViewMemoKeepsTwoMostRecent(t *testing.T) {
	g := make([]*graph.Graph, 3)
	for i := range g {
		m := graphtest.NewModel(graph.FacetIP)
		m.Vertex(graphtest.Node(i))
		g[i] = m.Graph()
	}
	m := new(viewMemo)
	u0, u1 := m.view(g[0]), m.view(g[1])
	if m.view(g[0]) != u0 || m.view(g[1]) != u1 || m.view(g[1]) != u1 {
		t.Fatal("a view among the last two asked for was rebuilt")
	}
	m.view(g[0])
	m.view(g[2]) // evicts g[1], the least recently asked
	if m.view(g[0]) != u0 {
		t.Fatal("the more recently asked view was evicted")
	}
	if m.view(g[1]) == u1 {
		t.Fatal("three windows' views were retained")
	}
	if held := m.held(); len(held) != 2 || held[0] != g[0] || held[1] != g[1] {
		t.Fatalf("memo holds %v, want the last two asked for", held)
	}
	var nilMemo *viewMemo
	if nilMemo.view(g[0]) == nil {
		t.Fatal("a nil memo must build the view")
	}
}

// TestSharedViewUnderDrops pins the view memo all four default runners
// share under the same drops: the policy consumer stalls while segment,
// summarize and counterfactual advance and then races them for the last
// windows. Every answer retained must equal solo runners byte for byte;
// the plane must never hold more than two views, never two of one window,
// and must end holding the latest window's.
func TestSharedViewUnderDrops(t *testing.T) {
	recs := seededStream(t)
	const window = 5 * time.Minute
	var views *viewMemo
	check := func(p *Plane) {
		if views == nil {
			views = p.runners[1].(*SummarizeRunner).views
		}
		held := views.held()
		if len(held) > 2 || (len(held) == 2 && held[0] == held[1]) {
			t.Fatalf("the plane holds views of %d windows (%v)", len(held), held)
		}
	}
	p := stalledPolicyPlane(t, recs, window, check)
	check(p)
	assertMatchesSolo(t, p, recs, window)

	seg, sum := p.runners[0].(*SegmentRunner), p.runners[1].(*SummarizeRunner)
	cf, pol := p.runners[2].(*CounterfactualRunner), p.runners[3].(*PolicyChurnRunner)
	if views == nil || sum.views != views || cf.views != views || seg.memo.views != views || pol.memo.views != views {
		t.Fatal("the default runners do not share one view memo")
	}
	held := views.held()
	if latest := p.Timeline().Latest(); len(held) == 0 || held[len(held)-1] != latest {
		t.Fatal("the view memo does not hold the latest window's view last")
	}
}

// TestSummarizeRunnerMatchesBatchScorer proves the incremental anomaly
// recurrence equals summarize.ScoreWindows over the full prefix — the
// online score is not an approximation.
func TestSummarizeRunnerMatchesBatchScorer(t *testing.T) {
	recs := seededStream(t)
	p := New(Config{Runners: []Runner{NewSummarize(summarize.AnomalyOptions{})}})
	windows := p.Replay(recs, ReplayOptions{Window: time.Minute})
	if len(windows) < 20 {
		t.Fatalf("only %d windows", len(windows))
	}
	batch := summarize.ScoreWindows(windows, summarize.AnomalyOptions{})
	drifted := false
	for i := range windows {
		_, raw, err := p.Query("summarize", uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		var res SummarizeResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.Score != batch[i] {
			t.Fatalf("window %d: online score %+v != batch %+v", i, res.Score, batch[i])
		}
		if res.Score.Drift > 0 {
			drifted = true
		}
	}
	if !drifted {
		t.Fatal("no window recorded any drift; the scorer saw nothing")
	}
}

// TestPolicyChurnRunnerBaseline sanity-checks the policy runner's shape:
// first window is the baseline, later windows price moves.
func TestPolicyChurnRunnerBaseline(t *testing.T) {
	recs := seededStream(t)
	p := New(Config{Runners: []Runner{NewPolicyChurn(segment.StrategyJaccardLouvain, segment.Options{})}})
	p.Replay(recs, ReplayOptions{Window: 15 * time.Minute})
	_, raw, err := p.Query("policy", 1)
	if err != nil {
		t.Fatal(err)
	}
	var first PolicyChurnResult
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if !first.Baseline || first.Segments < 2 {
		t.Fatalf("first window = %+v, want a baseline with >=2 segments", first)
	}
	_, raw, err = p.Query("policy", 0)
	if err != nil {
		t.Fatal(err)
	}
	var last PolicyChurnResult
	if err := json.Unmarshal(raw, &last); err != nil {
		t.Fatal(err)
	}
	if last.Baseline {
		t.Fatalf("latest window still flagged baseline: %+v", last)
	}
	if last.Moved > 0 && last.IPRuleUpdates <= last.TagUpdates {
		t.Fatalf("moves priced but per-IP cost (%d) not above tag cost (%d)",
			last.IPRuleUpdates, last.TagUpdates)
	}
}
