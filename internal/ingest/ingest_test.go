package ingest

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
)

var t0 = time.Unix(1700000000, 0).UTC().Truncate(time.Minute)

func rec(local, remote netip.Addr, lport, rport uint16, bytes uint64, ts time.Time) flowlog.Record {
	return flowlog.Record{
		Time: ts, LocalIP: local, LocalPort: lport, RemoteIP: remote, RemotePort: rport,
		PacketsSent: bytes / 1460, BytesSent: bytes, PacketsRcvd: 1, BytesRcvd: 100,
	}
}

func TestPipelineMatchesSerialBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	addrs := make([]netip.Addr, 20)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 1, byte(i + 1)})
	}
	var recs []flowlog.Record
	for minute := 0; minute < 5; minute++ {
		ts := t0.Add(time.Duration(minute) * time.Minute)
		for f := 0; f < 500; f++ {
			a, b := addrs[rng.Intn(len(addrs))], addrs[rng.Intn(len(addrs))]
			if a == b {
				continue
			}
			r := rec(a, b, uint16(30000+rng.Intn(1000)), 443, uint64(1000+rng.Intn(5000)), ts)
			recs = append(recs, r)
			if rng.Intn(2) == 0 { // double-report half the flows
				recs = append(recs, r.Reverse())
			}
		}
	}
	serial := graph.Build(recs, graph.BuilderOptions{Facet: graph.FacetIP})

	p := NewPipeline(4, graph.BuilderOptions{Facet: graph.FacetIP})
	for i := 0; i < len(recs); i += 97 {
		end := i + 97
		if end > len(recs) {
			end = len(recs)
		}
		p.Ingest(recs[i:end])
	}
	parallel, report := p.Close()

	if parallel.NumNodes() != serial.NumNodes() {
		t.Errorf("nodes: parallel %d vs serial %d", parallel.NumNodes(), serial.NumNodes())
	}
	if parallel.NumEdges() != serial.NumEdges() {
		t.Errorf("edges: parallel %d vs serial %d", parallel.NumEdges(), serial.NumEdges())
	}
	pt, st := parallel.TotalTraffic(), serial.TotalTraffic()
	if pt != st {
		t.Errorf("traffic: parallel %+v vs serial %+v", pt, st)
	}
	if report.Records != int64(len(recs)) {
		t.Errorf("meter records = %d, want %d", report.Records, len(recs))
	}
	if report.Workers != 4 {
		t.Errorf("workers = %d", report.Workers)
	}
}

func TestPipelineShardingKeepsFlowTogether(t *testing.T) {
	// The same flow key must always shard to the same worker, or dedup
	// breaks: verify via exact byte totals with double reports.
	a, b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	p := NewPipeline(8, graph.BuilderOptions{Facet: graph.FacetIP})
	r := rec(a, b, 30001, 443, 1000, t0)
	p.Ingest([]flowlog.Record{r})
	p.Ingest([]flowlog.Record{r.Reverse()}) // arrives in a later batch
	g, _ := p.Close()
	if got := g.PairCounters(graph.IPNode(a), graph.IPNode(b)).Bytes; got != 1100 {
		t.Errorf("pair bytes = %d, want 1100 (dedup across batches)", got)
	}
}

func TestPipelineSingleWorker(t *testing.T) {
	a, b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	p := NewPipeline(0, graph.BuilderOptions{Facet: graph.FacetIP})
	p.Ingest([]flowlog.Record{rec(a, b, 1, 2, 500, t0)})
	g, rep := p.Close()
	if g.NumEdges() != 1 || rep.Workers != 1 {
		t.Errorf("single-worker pipeline broken: %d edges, %d workers", g.NumEdges(), rep.Workers)
	}
}

func TestPipelineIngestAfterCloseIsNoop(t *testing.T) {
	p := NewPipeline(2, graph.BuilderOptions{})
	g, _ := p.Close()
	p.Ingest([]flowlog.Record{rec(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), 1, 2, 10, t0)})
	g2, _ := p.Close()
	if g.NumNodes() != 0 || g2.NumNodes() != 0 {
		t.Error("Ingest after Close should not add records")
	}
}

func TestPipelineCloseDuringIngestIsSafe(t *testing.T) {
	// Regression for the closed-flag data race: Ingest read p.closed
	// while Close wrote it with no synchronization, and an Ingest racing
	// the channel close could send on a closed channel. Run with -race.
	a, b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	for round := 0; round < 20; round++ {
		p := NewPipeline(4, graph.BuilderOptions{Facet: graph.FacetIP})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				batch := []flowlog.Record{rec(a, b, uint16(30000+g), 443, 1000, t0)}
				for i := 0; i < 50; i++ {
					p.Ingest(batch)
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p.Close()
		}()
		close(start)
		wg.Wait()
		// Close is idempotent and Ingest after Close stays a no-op.
		g1, _ := p.Close()
		p.Ingest([]flowlog.Record{rec(a, b, 1, 2, 10, t0)})
		g2, _ := p.Close()
		if g2.NumNodes() != g1.NumNodes() {
			t.Fatal("Ingest after Close added records")
		}
	}
}

func TestPipelineReportsPerShardStats(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.1")
	p := NewPipeline(3, graph.BuilderOptions{Facet: graph.FacetIP})
	for i := 0; i < 32; i++ {
		b := netip.AddrFrom4([4]byte{10, 0, 1, byte(i + 1)})
		p.Ingest([]flowlog.Record{rec(a, b, uint16(30000+i), 443, 1000, t0)})
	}
	_, report := p.Close()
	if len(report.Shards) != 3 {
		t.Fatalf("shard stats = %d entries, want 3", len(report.Shards))
	}
	var sum int64
	for _, s := range report.Shards {
		sum += s.Records
		if s.Depth != 0 {
			t.Errorf("drained worker reports depth %d", s.Depth)
		}
	}
	if sum != report.Records || sum != 32 {
		t.Errorf("per-shard records sum to %d, meter says %d", sum, report.Records)
	}
}

func TestShardOfStable(t *testing.T) {
	a, b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.9.9.9")
	k := flowlog.Record{LocalIP: a, LocalPort: 5, RemoteIP: b, RemotePort: 6}.Key()
	s := ShardOf(k, 7)
	for i := 0; i < 10; i++ {
		if ShardOf(k, 7) != s {
			t.Fatal("shardOf not deterministic")
		}
	}
	rev := flowlog.Record{LocalIP: b, LocalPort: 6, RemoteIP: a, RemotePort: 5}.Key()
	if ShardOf(rev, 7) != s {
		t.Error("reverse report shards differently")
	}
}

// TestShardOfBalanced pins the word-mixing hash's spread: over an hour of
// each benchmark preset, no shard carries more than 1.1x the mean record
// load at any width the engine is run at, and ShardOfRecord agrees with
// ShardOf on every record — the loader deals by one, the engine by the
// other.
func TestShardOfBalanced(t *testing.T) {
	for _, preset := range []string{"microservicebench", "k8spaas"} {
		spec, err := cluster.Preset(preset, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := c.CollectHour(time.Unix(1700000000, 0).UTC())
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 4, 8, 16} {
			load := make([]int, n)
			for i := range recs {
				s := ShardOfRecord(&recs[i], n)
				if k := ShardOf(recs[i].Key(), n); k != s {
					t.Fatalf("%s n=%d: ShardOfRecord = %d, ShardOf(Key()) = %d for %+v", preset, n, s, k, recs[i])
				}
				load[s]++
			}
			mean := float64(len(recs)) / float64(n)
			for s, l := range load {
				if float64(l) > 1.1*mean {
					t.Errorf("%s n=%d: shard %d holds %d of %d records, %.2fx the mean", preset, n, s, l, len(recs), float64(l)/mean)
				}
			}
		}
	}
}

func TestSpaceSavingExact(t *testing.T) {
	// With capacity >= distinct keys, counts are exact.
	s := NewSpaceSaving(10)
	n1 := graph.ServiceNode("a")
	n2 := graph.ServiceNode("b")
	s.Add(n1, 100)
	s.Add(n2, 50)
	s.Add(n1, 25)
	if c, e, ok := s.Estimate(n1); !ok || c != 125 || e != 0 {
		t.Errorf("Estimate(a) = %d,%d,%v", c, e, ok)
	}
	if s.Total() != 175 {
		t.Errorf("Total = %d", s.Total())
	}
}

func TestSpaceSavingGuarantee(t *testing.T) {
	// Any key with true share > 1/k must be tracked.
	rng := rand.New(rand.NewSource(3))
	s := NewSpaceSaving(50)
	heavy := graph.ServiceNode("heavy")
	truth := make(map[graph.Node]uint64)
	for i := 0; i < 100_000; i++ {
		var n graph.Node
		if rng.Intn(10) == 0 {
			n = heavy
		} else {
			n = graph.ServiceNode(string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))))
		}
		s.Add(n, 1)
		truth[n]++
	}
	c, errBound, ok := s.Estimate(heavy)
	if !ok {
		t.Fatal("heavy key not tracked despite ~10% share")
	}
	if c < truth[heavy] {
		t.Errorf("space-saving underestimated: %d < true %d", c, truth[heavy])
	}
	if c-errBound > truth[heavy] {
		t.Errorf("count - err = %d exceeds true count %d", c-errBound, truth[heavy])
	}
	hh := s.Heavy(0.05)
	if len(hh) == 0 || hh[0].Node != heavy {
		t.Errorf("Heavy(0.05) should lead with the heavy key: %+v", hh)
	}
}

func TestSpaceSavingCapacityBound(t *testing.T) {
	s := NewSpaceSaving(8)
	for i := 0; i < 1000; i++ {
		s.Add(graph.IPNode(netip.AddrFrom4([4]byte{1, 1, byte(i >> 8), byte(i)})), 1)
	}
	if s.Len() > 8 {
		t.Errorf("sketch grew to %d entries, cap 8", s.Len())
	}
}

func TestSpaceSavingHeavyDeterministicOrder(t *testing.T) {
	s := NewSpaceSaving(10)
	s.Add(graph.ServiceNode("x"), 5)
	s.Add(graph.ServiceNode("y"), 5)
	h := s.Heavy(0)
	if len(h) != 2 || !h[0].Node.Less(h[1].Node) {
		t.Errorf("ties should break by node order: %+v", h)
	}
}

func TestMeterAndCores(t *testing.T) {
	m := NewMeter()
	m.Observe(600)
	r := m.Snapshot()
	if r.Records != 600 || r.Bytes != int64(600*flowlog.WireSize) {
		t.Errorf("meter = %+v", r)
	}
	r.WorkerBusy = 6 * time.Second
	r.Records = 600
	// 10ms busy per record; 60 records/min live => 0.6s busy per minute
	// => 0.01 cores.
	got := r.CoresForLive(60)
	if got < 0.0099 || got > 0.0101 {
		t.Errorf("CoresForLive = %v, want 0.01", got)
	}
	pct := r.SurchargePct(60, 100, 8)
	want := 100 * (0.01 / 8) / 100
	if pct < want*0.99 || pct > want*1.01 {
		t.Errorf("SurchargePct = %v, want %v", pct, want)
	}
	if r.String() == "" {
		t.Error("String empty")
	}
}

// ssHeapInvariant checks the sketch's internal heap after a stream: the
// min-heap property must hold, every entry's index must match its slot, and
// the map and heap must track the same entries. The evict-and-replace path
// rewrites heap[0] in place and Fixes it; this is the test that a future
// refactor of that path cannot silently skip the re-fix.
func ssHeapInvariant(s *SpaceSaving) string {
	if len(s.heap) != len(s.entries) {
		return "heap and entry map diverged"
	}
	for i, e := range s.heap {
		if e.index != i {
			return "stale heap index after eviction"
		}
		if s.entries[e.node] != e {
			return "heap entry not in map"
		}
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(s.heap) && s.heap[c].count < e.count {
				return "min-heap property violated"
			}
		}
	}
	return ""
}

// TestPropertySpaceSavingAdversarial drives the sketch with eviction-heavy
// adversarial streams and checks the Metwally guarantees against exact
// counts: any node with true count > total/k is tracked, estimates never
// undercount, and overestimation stays within the reported err bound
// (count - err <= true). The streams are built to churn the evict path —
// rotating novel keys so every insert after warm-up replaces the minimum.
func TestPropertySpaceSavingAdversarial(t *testing.T) {
	node := func(i int) graph.Node {
		return graph.IPNode(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 4 + rng.Intn(60)
		s := NewSpaceSaving(k)
		truth := make(map[graph.Node]uint64)
		add := func(n graph.Node, inc uint64) {
			s.Add(n, inc)
			truth[n] += inc
		}
		streams := rng.Intn(3)
		for i := 0; i < 20_000; i++ {
			switch streams {
			case 0:
				// Rotation attack: an endless run of novel keys, each seen
				// once, so every Add past warm-up evicts the minimum.
				add(node(i), 1)
				if i%7 == 0 {
					add(node(i%3), 1) // a few persistent heavies
				}
			case 1:
				// Skewed: a handful of heavies inside novel-key churn.
				if rng.Intn(4) == 0 {
					add(node(rng.Intn(5)), uint64(1+rng.Intn(9)))
				} else {
					add(node(1000+rng.Intn(10_000)), 1)
				}
			default:
				// Regime change: heavies of the first half go silent, a
				// disjoint set takes over — stale counts must be evictable.
				base := 0
				if i >= 10_000 {
					base = 100_000
				}
				add(node(base+rng.Intn(200)), uint64(1+rng.Intn(3)))
			}
		}
		if msg := ssHeapInvariant(s); msg != "" {
			t.Error(msg)
			return false
		}
		if s.Len() > k {
			t.Errorf("sketch holds %d entries, cap %d", s.Len(), k)
			return false
		}
		floor := s.Total() / uint64(k)
		for n, true_ := range truth {
			c, errBound, ok := s.Estimate(n)
			if true_ > floor && !ok {
				t.Errorf("node with true count %d > total/k=%d not tracked", true_, floor)
				return false
			}
			if !ok {
				continue
			}
			if c < true_ {
				t.Errorf("underestimate: %d < true %d", c, true_)
				return false
			}
			if c-errBound > true_ {
				t.Errorf("count-err = %d exceeds true %d: err bound broken", c-errBound, true_)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
