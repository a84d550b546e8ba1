package runner

import (
	"encoding/json"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
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

// TestSharedMemosMatchSolo pins the memos DefaultRunners share: a plane
// stepping them together, every view and segmentation built once per
// window, answers byte for byte what the same analyses built alone — no
// memo — answer over the same stream.
func TestSharedMemosMatchSolo(t *testing.T) {
	recs := seededStream(t)
	const window = 5 * time.Minute
	shared := runBatch(recs, window, nil)
	solo := New(Config{Runners: []Runner{
		NewSegment(),
		NewSummarize(),
		NewCounterfactual(),
		NewPolicyChurn(),
	}})
	solo.Replay(recs, ReplayOptions{Window: window})
	_, epochs := solo.Epochs("segment")
	comparePlanes(t, "shared-vs-solo", shared, solo, epochs)
}

// held returns the windows whose views the memo retains.
func (m *viewMemo) held() []*graph.Graph {
	var out []*graph.Graph
	for _, e := range m.entries {
		if e.g != nil {
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

// TestSummarizeRunnerMatchesBatchScorer proves the incremental anomaly
// recurrence equals summarize.ScoreWindows over the full prefix — the
// online score is not an approximation.
func TestSummarizeRunnerMatchesBatchScorer(t *testing.T) {
	recs := seededStream(t)
	p := New(Config{Runners: []Runner{NewSummarize()}})
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
	p := New(Config{Runners: []Runner{NewPolicyChurn()}})
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
