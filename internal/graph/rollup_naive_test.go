package graph_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
	"cloudgraph/internal/store"
	"cloudgraph/internal/trace"
)

// naiveFoldRollup is graph.FoldRollup as it was before roll-up buckets
// folded in CSR: a map-form accumulator every member merges into through
// Graph.Merge, frozen by the caller when the bucket seals. Kept as the
// reference FoldRollup is tested against.
func naiveFoldRollup(acc, g *graph.Graph, size time.Duration) *graph.Graph {
	if acc == nil {
		acc = graph.New(g.Facet)
	}
	acc.Merge(g)
	acc.Start = graph.RollupStart(g.Start, size)
	if end := acc.Start.Add(size); acc.End.Before(end) {
		acc.End = end
	}
	return acc
}

// foldBuckets folds members in order with fold under the timeline's bucket
// rule — seal and open a new bucket when RollupStart moves — and returns
// the sealed buckets. check, when set, sees every intermediate accumulator.
func foldBuckets(members []*graph.Graph, size time.Duration,
	fold func(acc, g *graph.Graph, size time.Duration) *graph.Graph, check func(acc *graph.Graph)) []*graph.Graph {
	var sealed []*graph.Graph
	var acc *graph.Graph
	for _, g := range members {
		if acc != nil && !acc.Start.Equal(graph.RollupStart(g.Start, size)) {
			sealed = append(sealed, acc)
			acc = nil
		}
		acc = fold(acc, g, size)
		acc.Traces = append(acc.Traces, g.Traces...)
		if check != nil {
			check(acc)
		}
	}
	if acc != nil {
		sealed = append(sealed, acc)
	}
	return sealed
}

// memberState is what folding must leave unchanged in a member.
type memberState struct {
	frozen bool
	bytes  []byte
	series map[[2]graph.Node][]graph.Sample
	traces []trace.Context
}

func stateOf(g *graph.Graph) memberState {
	st := memberState{
		frozen: g.Frozen(),
		bytes:  store.EncodeGraph(g),
		series: make(map[[2]graph.Node][]graph.Sample),
		traces: slices.Clone(g.Traces),
	}
	g.EachOut(func(src, dst graph.Node, e *graph.Edge) {
		st.series[[2]graph.Node{src, dst}] = slices.Clone(e.Series)
	})
	return st
}

// backing returns the first element's address of every non-empty array a
// graph holds — its CSR arrays when frozen and every edge's series — so two
// graphs share storage iff their sets intersect.
func backing(g *graph.Graph) map[any]bool {
	out := make(map[any]bool)
	if g.Frozen() {
		nodes, rowOff, cols, edges := g.CSR()
		for _, p := range []any{first(nodes), first(rowOff), first(cols), first(edges)} {
			if p != nil {
				out[p] = true
			}
		}
	}
	g.EachOut(func(_, _ graph.Node, e *graph.Edge) {
		if p := first(e.Series); p != nil {
			out[p] = true
		}
	})
	if p := first(g.Traces); p != nil {
		out[p] = true
	}
	return out
}

func first[T any](s []T) any {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// withSeries gives every directed edge of a map-form graph a short series
// whose starts come from a handful of minutes, so the same edge in two
// members has colliding sample starts; a few series repeat a start.
func withSeries(g *graph.Graph, rng *rand.Rand, t0 time.Time) {
	for _, n := range g.Nodes() {
		for _, m := range g.Nodes() {
			e := g.OutEdge(n, m)
			if e == nil {
				continue
			}
			var series []graph.Sample
			for min := 0; min < 4; min++ {
				if rng.Intn(2) == 0 {
					continue
				}
				s := graph.Sample{Start: t0.Add(time.Duration(min) * time.Minute), Counters: graph.Counters{Bytes: uint64(rng.Intn(50)), Packets: 1}}
				series = append(series, s)
				if rng.Intn(8) == 0 {
					series = append(series, s)
				}
			}
			e.Series = series
		}
	}
}

// rollupMembers returns graphtest's shapes over a few seeds as roll-up
// members — map-form, frozen, or alternating — with series, traces and
// starts spread over three hour buckets: several members share a start,
// and one runs past its bucket's end.
func rollupMembers(form string) []*graph.Graph {
	var out []*graph.Graph
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i, c := range graphtest.Cases(seed) {
			g := c.G
			withSeries(g, rng, naiveT0)
			if form == "frozen" || (form == "mixed" && i%2 == 1) {
				g.Freeze()
			}
			k := len(out)
			g.Start = naiveT0.Add(time.Duration(k/6)*time.Hour + time.Duration(k%3)*20*time.Minute)
			g.End = g.Start.Add(time.Minute)
			if k == 4 {
				g.End = g.Start.Add(90 * time.Minute)
			}
			g.Traces = make([]trace.Context, 1, 4)
			g.Traces[0] = trace.Context{TraceID: uint64(k + 1), SpanID: 1}
			out = append(out, g)
		}
	}
	return out
}

// minuteWindows builds a preset hour's records into one graph per minute,
// in time order: the windows an engine would seal.
func minuteWindows(recs []flowlog.Record, series bool) []*graph.Graph {
	byMinute := make(map[int64][]flowlog.Record)
	var minutes []int64
	for _, r := range recs {
		k := r.Time.Truncate(time.Minute).Unix()
		if byMinute[k] == nil {
			minutes = append(minutes, k)
		}
		byMinute[k] = append(byMinute[k], r)
	}
	slices.Sort(minutes)
	var out []*graph.Graph
	for _, k := range minutes {
		g := graph.Build(byMinute[k], graph.BuilderOptions{KeepSeries: series})
		g.Start = time.Unix(k, 0).UTC()
		g.End = g.Start.Add(time.Minute)
		out = append(out, g)
	}
	return out
}

// TestFoldRollupMatchesNaive folds the same members with FoldRollup and
// its retired map-form body — graphtest's shapes (self-loops, isolated
// nodes, one-way and zero-byte edges) in map, frozen and mixed form with
// colliding series starts, and a k8spaas hour's minute windows with and
// without series — and requires the same sealed buckets: same nodes,
// counters, series, window and EncodeGraph bytes. Every intermediate
// accumulator must be frozen and share no array — CSR, series or traces —
// with any member, and no member may change form, bytes, series or traces.
func TestFoldRollupMatchesNaive(t *testing.T) {
	k8s := presetHour(t, "k8spaas", 0.02)
	inputs := map[string]func() []*graph.Graph{
		"shapes/map":     func() []*graph.Graph { return rollupMembers("map") },
		"shapes/frozen":  func() []*graph.Graph { return rollupMembers("frozen") },
		"shapes/mixed":   func() []*graph.Graph { return rollupMembers("mixed") },
		"k8spaas":        func() []*graph.Graph { return minuteWindows(k8s, false) },
		"k8spaas/series": func() []*graph.Graph { return minuteWindows(k8s, true) },
	}
	for name, members := range inputs {
		for _, size := range []time.Duration{time.Hour, 10 * time.Minute} {
			t.Run(fmt.Sprintf("%s/%v", name, size), func(t *testing.T) {
				in := members()
				before := make([]memberState, len(in))
				for i, g := range in {
					before[i] = stateOf(g)
				}
				memberArrays := make(map[any]bool)
				for _, g := range in {
					maps.Copy(memberArrays, backing(g))
				}
				got := foldBuckets(in, size, graph.FoldRollup, func(acc *graph.Graph) {
					if !acc.Frozen() {
						t.Fatal("FoldRollup returned a map-form accumulator")
					}
					for p := range backing(acc) {
						if memberArrays[p] {
							t.Fatal("the accumulator shares an array with a member")
						}
					}
				})
				for i, g := range in {
					if after := stateOf(g); !reflect.DeepEqual(after, before[i]) {
						t.Fatalf("member %d changed while folding", i)
					}
				}
				want := foldBuckets(members(), size, naiveFoldRollup, nil)
				if len(got) != len(want) {
					t.Fatalf("%d buckets, want %d", len(got), len(want))
				}
				for i := range got {
					sameGraph(t, got[i], want[i])
					if !reflect.DeepEqual(got[i].Traces, want[i].Traces) {
						t.Fatalf("bucket %d traces differ", i)
					}
				}
			})
		}
	}
}
