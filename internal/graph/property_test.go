package graph_test

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cloudgraph/internal/flowlog"
	. "cloudgraph/internal/graph"
)

// randRecords builds a random but valid batch of records within one hour,
// with some flows double-reported, for invariant checking.
func randRecords(rng *rand.Rand) []flowlog.Record {
	n := 1 + rng.Intn(200)
	recs := make([]flowlog.Record, 0, n*2)
	base := time.Unix(1700000000, 0).UTC()
	for i := 0; i < n; i++ {
		a := netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + rng.Intn(20))})
		b := netip.AddrFrom4([4]byte{10, 0, 1, byte(1 + rng.Intn(20))})
		r := flowlog.Record{
			Time:        base.Add(time.Duration(rng.Intn(60)) * time.Minute),
			LocalIP:     a,
			LocalPort:   uint16(1024 + rng.Intn(60000)),
			RemoteIP:    b,
			RemotePort:  uint16(1 + rng.Intn(1024)),
			PacketsSent: uint64(rng.Intn(1000)),
			PacketsRcvd: uint64(rng.Intn(1000)),
			BytesSent:   uint64(rng.Intn(1_000_000)),
			BytesRcvd:   uint64(rng.Intn(1_000_000)),
		}
		recs = append(recs, r)
		if rng.Intn(3) == 0 {
			recs = append(recs, r.Reverse())
		}
	}
	return recs
}

// sortByTime orders records chronologically, as the collection path would.
func sortByTime(recs []flowlog.Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Time.Before(recs[j-1].Time); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

func TestPropertyNodeStrengthSumsToTwiceTotal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randRecords(rng)
		sortByTime(recs)
		g := Build(recs, BuilderOptions{Facet: FacetIP})
		total := g.TotalTraffic()
		var sum Counters
		for _, n := range g.Nodes() {
			sum.Bytes += g.NodeStrength(n, Bytes)
			sum.Packets += g.NodeStrength(n, Packets)
			sum.Conns += g.NodeStrength(n, Conns)
		}
		return sum.Bytes == 2*total.Bytes && sum.Packets == 2*total.Packets && sum.Conns == 2*total.Conns
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyUndirectedEdgesMatchTotals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randRecords(rng)
		sortByTime(recs)
		g := Build(recs, BuilderOptions{Facet: FacetIP})
		edges := g.UndirectedEdges()
		if len(edges) != g.NumEdges() {
			return false
		}
		var sum Counters
		for _, e := range edges {
			sum.Add(e.Counters)
		}
		return sum == g.TotalTraffic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDoubleReportingNeverInflates(t *testing.T) {
	// Building from records with every flow double-reported must yield
	// exactly the same totals as building from single reports.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		single := randRecords(rng)
		// Strip any double reports randRecords added, then mirror all.
		seen := make(map[flowlog.FlowKey]map[int64]bool)
		var clean []flowlog.Record
		for _, r := range single {
			k := r.Key()
			m := seen[k]
			if m == nil {
				m = make(map[int64]bool)
				seen[k] = m
			}
			minute := r.Time.Truncate(time.Minute).Unix()
			if m[minute] {
				continue
			}
			m[minute] = true
			clean = append(clean, r)
		}
		doubled := make([]flowlog.Record, 0, len(clean)*2)
		for _, r := range clean {
			doubled = append(doubled, r, r.Reverse())
		}
		sortByTime(clean)
		sortByTime(doubled)
		a := Build(clean, BuilderOptions{Facet: FacetIP})
		b := Build(doubled, BuilderOptions{Facet: FacetIP})
		return a.TotalTraffic() == b.TotalTraffic() && a.NumEdges() == b.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCollapsePreservesOrReducesTotals(t *testing.T) {
	// Collapse never invents traffic; it only drops intra-bucket traffic.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randRecords(rng)
		sortByTime(recs)
		g := Build(recs, BuilderOptions{Facet: FacetIP})
		c := g.Collapse(CollapseOptions{Threshold: 0.01})
		tg, tc := g.TotalTraffic(), c.TotalTraffic()
		return tc.Bytes <= tg.Bytes && tc.Packets <= tg.Packets &&
			tc.Conns <= tg.Conns && c.NumNodes() <= g.NumNodes()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMergeEqualsSequentialBuild(t *testing.T) {
	// Splitting a record stream by flow key across two builders and
	// merging their graphs must equal one sequential build.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randRecords(rng)
		sortByTime(recs)
		whole := Build(recs, BuilderOptions{Facet: FacetIP})

		var partA, partB []flowlog.Record
		for _, r := range recs {
			if r.Key().A.Port()%2 == 0 {
				partA = append(partA, r)
			} else {
				partB = append(partB, r)
			}
		}
		merged := Build(partA, BuilderOptions{Facet: FacetIP})
		merged.Merge(Build(partB, BuilderOptions{Facet: FacetIP}))
		return merged.TotalTraffic() == whole.TotalTraffic() &&
			merged.NumNodes() == whole.NumNodes() &&
			merged.NumEdges() == whole.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDiffSymmetry(t *testing.T) {
	// Added/removed swap when diffing in the opposite direction, and
	// self-diff is empty.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Build(randRecords(rng), BuilderOptions{Facet: FacetIP})
		b := Build(randRecords(rng), BuilderOptions{Facet: FacetIP})
		ab := Diff(a, b)
		ba := Diff(b, a)
		if len(ab.AddedNodes) != len(ba.RemovedNodes) || len(ab.RemovedNodes) != len(ba.AddedNodes) {
			return false
		}
		if len(ab.AddedPairs) != len(ba.RemovedPairs) || len(ab.RemovedPairs) != len(ba.AddedPairs) {
			return false
		}
		self := Diff(a, a)
		return self.ByteChange == 0 && len(self.AddedNodes) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAdjacencyMatchesEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randRecords(rng)
		sortByTime(recs)
		g := Build(recs, BuilderOptions{Facet: FacetIP})
		adj := g.AdjacencyMatrix(Bytes)
		var matSum float64
		for _, v := range adj.M {
			matSum += v
		}
		return uint64(matSum) == g.TotalTraffic().Bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMergeSumsCollidingSeries(t *testing.T) {
	// Splitting a stream by flow key and merging KeepSeries builders must
	// reproduce the serial build's per-edge series exactly. Partials that
	// both carry the same directed edge in the same interval collide on
	// Sample.Start; the merge must sum that bucket, not emit it twice —
	// this is the window-boundary bug the sharded engine hits.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randRecords(rng)
		sortByTime(recs)
		whole := Build(recs, BuilderOptions{Facet: FacetIP, KeepSeries: true})

		var partA, partB []flowlog.Record
		for _, r := range recs {
			if r.Key().A.Port()%2 == 0 {
				partA = append(partA, r)
			} else {
				partB = append(partB, r)
			}
		}
		merged := Build(partA, BuilderOptions{Facet: FacetIP, KeepSeries: true})
		merged.Merge(Build(partB, BuilderOptions{Facet: FacetIP, KeepSeries: true}))

		if merged.NumDirectedEdges() != whole.NumDirectedEdges() {
			return false
		}
		ok := true
		whole.EachOut(func(src, dst Node, e *Edge) {
			me := merged.OutEdge(src, dst)
			if me == nil || !reflect.DeepEqual(me.Series, e.Series) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
