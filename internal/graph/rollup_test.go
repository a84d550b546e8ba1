package graph_test

import (
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

// diffEmpty reports whether d records no structural or traffic change.
func diffEmpty(d graph.Delta) bool {
	return len(d.AddedNodes) == 0 && len(d.RemovedNodes) == 0 &&
		len(d.AddedPairs) == 0 && len(d.RemovedPairs) == 0 && d.ByteChange == 0
}

// fold folds members, in order, into roll-up buckets of the given size
// under the bucket rule compaction follows, returning the sealed buckets.
func fold(members []*graph.Graph, size time.Duration) []*graph.Graph {
	var out []*graph.Graph
	for _, b := range buckets(members, size) {
		var acc *graph.Graph
		for _, g := range members[b[0]:b[1]] {
			acc = graph.FoldRollup(acc, g, size)
		}
		out = append(out, acc)
	}
	return out
}

// usvcHour is a seeded MicroserviceBench hour at scale 0.2.
func usvcHour(t *testing.T) []flowlog.Record {
	t.Helper()
	c, err := cluster.New(cluster.MicroserviceBench(0.2))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.CollectHour(naiveT0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("cluster emitted no records")
	}
	return recs
}

// TestRollupEqualsDirectBuild is the roll-up correctness property: folding
// the minute-window graphs of a seeded cluster replay yields exactly the
// graph built directly over the same records. Roll-ups are therefore
// lossless re-aggregations, not approximations.
func TestRollupEqualsDirectBuild(t *testing.T) {
	recs := usvcHour(t)
	windows := minuteWindows(recs)
	if len(windows) < 2 {
		t.Fatalf("replay spans %d minute windows; property needs several", len(windows))
	}
	rollups := fold(windows, time.Hour)
	if len(rollups) != 1 {
		t.Fatalf("hour of minutes sealed into %d rollups, want 1", len(rollups))
	}
	direct := graph.Build(recs, graph.BuilderOptions{})
	if d := graph.Diff(direct, rollups[0]); !diffEmpty(d) {
		t.Fatalf("rollup != direct build: +%d/-%d nodes, +%d/-%d pairs, drift %g",
			len(d.AddedNodes), len(d.RemovedNodes), len(d.AddedPairs), len(d.RemovedPairs), d.ByteChange)
	}
	if d := graph.Diff(rollups[0], direct); !diffEmpty(d) {
		t.Fatal("rollup != direct build in reverse direction")
	}
}

// TestRollupOverlappingWindowsEqualsDirectBuild extends the roll-up
// property to overlapping-interval inputs: two window graphs spanning the
// same hour (the shape sharded ingest partials take) must fold into a
// roll-up identical to the direct build, its colliding edges summed.
func TestRollupOverlappingWindowsEqualsDirectBuild(t *testing.T) {
	recs := usvcHour(t)
	// Split the stream by flow key into two halves covering the same
	// intervals — exactly how the engine shards, so both reports of a flow
	// stay together and dedup matches the serial build.
	var a, b []flowlog.Record
	for _, r := range recs {
		if r.Key().A.Port()%2 == 0 {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
	}
	ga := graph.Build(a, graph.BuilderOptions{})
	gb := graph.Build(b, graph.BuilderOptions{})

	rollups := fold([]*graph.Graph{ga, gb}, time.Hour)
	if len(rollups) != 1 {
		t.Fatalf("overlapping windows sealed into %d rollups, want 1", len(rollups))
	}
	roll := rollups[0]

	direct := graph.Build(recs, graph.BuilderOptions{})
	if d := graph.Diff(direct, roll); !diffEmpty(d) {
		t.Fatalf("rollup != direct build: +%d/-%d nodes, +%d/-%d pairs, drift %g",
			len(d.AddedNodes), len(d.RemovedNodes), len(d.AddedPairs), len(d.RemovedPairs), d.ByteChange)
	}
	if d := graph.Diff(roll, direct); !diffEmpty(d) {
		t.Fatal("rollup != direct build in reverse direction")
	}
	// Every directed edge the two partials share must sum, not repeat.
	want := graphtest.Of(direct)
	want.Start, want.End = roll.Start, roll.End
	if err := want.Check(roll); err != nil {
		t.Fatalf("rollup != direct build: %v", err)
	}
}
