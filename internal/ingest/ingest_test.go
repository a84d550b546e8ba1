package ingest

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
)

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
