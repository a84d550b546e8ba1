package graph_test

import (
	"fmt"
	"maps"
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

// naiveFoldRollup is graph.FoldRollup over graphtest models: the bucket
// accumulates every member in its own maps. Kept as the reference
// FoldRollup is tested against.
func naiveFoldRollup(acc, g *graphtest.Model, size time.Duration) *graphtest.Model {
	if acc == nil {
		acc = graphtest.NewModel(g.Facet)
	}
	acc.Merge(g)
	acc.Start = graph.RollupStart(g.Start, size)
	if end := acc.Start.Add(size); acc.End.Before(end) {
		acc.End = end
	}
	return acc
}

// buckets splits members, in order, under compaction's bucket rule: a
// member whose RollupStart differs from its predecessor's seals the bucket
// and opens the next. It returns each bucket's [lo, hi) member range.
func buckets(members []*graph.Graph, size time.Duration) [][2]int {
	var out [][2]int
	for i, g := range members {
		if i == 0 || !graph.RollupStart(g.Start, size).Equal(graph.RollupStart(members[i-1].Start, size)) {
			out = append(out, [2]int{i, i})
		}
		out[len(out)-1][1] = i + 1
	}
	return out
}

// memberState is what folding must leave unchanged in a member.
type memberState struct {
	bytes  []byte
	traces []trace.Context
}

func stateOf(g *graph.Graph) memberState {
	return memberState{bytes: store.EncodeGraph(g), traces: slices.Clone(g.Traces)}
}

// backing returns the first element's address of every non-empty array a
// graph holds — its CSR arrays and traces — so two graphs share storage
// iff their sets intersect.
func backing(g *graph.Graph) map[any]bool {
	out := make(map[any]bool)
	nodes, rowOff, cols, edges := g.CSR()
	for _, p := range []any{first(nodes), first(rowOff), first(cols), first(edges)} {
		if p != nil {
			out[p] = true
		}
	}
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

// rollupMembers returns graphtest's shapes over a few seeds as roll-up
// members with traces and starts spread over three hour buckets (several
// members share a start, and one runs past its bucket's end), beside the
// models they were built from. form picks where the members come from:
// "map" assembles them from their models, "frozen" decodes them from their
// stored bytes, as compaction reads them, and "mixed" alternates, as in a
// bucket that spans a restart.
func rollupMembers(t *testing.T, form string) ([]*graph.Graph, []*graphtest.Model) {
	var gs []*graph.Graph
	var ms []*graphtest.Model
	for seed := int64(1); seed <= 3; seed++ {
		for i, c := range graphtest.Cases(seed) {
			m := c.M
			k := len(gs)
			m.Start = naiveT0.Add(time.Duration(k/6)*time.Hour + time.Duration(k%3)*20*time.Minute)
			m.End = m.Start.Add(time.Minute)
			if k == 4 {
				m.End = m.Start.Add(90 * time.Minute)
			}
			g := m.Graph()
			if form == "frozen" || (form == "mixed" && i%2 == 1) {
				var err error
				if g, err = store.DecodeGraph(store.EncodeGraph(g)); err != nil {
					t.Fatal(err)
				}
			}
			g.Traces = make([]trace.Context, 1, 4)
			g.Traces[0] = trace.Context{TraceID: uint64(k + 1), SpanID: 1}
			gs, ms = append(gs, g), append(ms, m)
		}
	}
	return gs, ms
}

// minuteWindows builds a preset hour's records into one graph per minute,
// in time order: the windows an engine would seal.
func minuteWindows(recs []flowlog.Record) []*graph.Graph {
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
		g := graph.Build(byMinute[k], graph.BuilderOptions{})
		g.Start = time.Unix(k, 0).UTC()
		g.End = g.Start.Add(time.Minute)
		out = append(out, g)
	}
	return out
}

// TestFoldRollupMatchesNaive folds the same members with FoldRollup and
// with the model reference — graphtest's shapes (self-loops, isolated
// nodes, one-way and zero-byte edges), assembled from their models,
// decoded from their stored bytes, or mixed, and a k8spaas hour's minute
// windows — and requires every sealed bucket to hold the model's nodes,
// counters and window, and its members' traces in order. No intermediate
// accumulator may share an array — CSR or traces — with any member, and
// no member may change bytes or traces.
func TestFoldRollupMatchesNaive(t *testing.T) {
	k8s := presetHour(t, "k8spaas", 0.02)
	windows := func() ([]*graph.Graph, []*graphtest.Model) {
		gs := minuteWindows(k8s)
		ms := make([]*graphtest.Model, len(gs))
		for i, g := range gs {
			ms[i] = graphtest.Of(g)
		}
		return gs, ms
	}
	inputs := map[string]func() ([]*graph.Graph, []*graphtest.Model){
		"shapes/map":    func() ([]*graph.Graph, []*graphtest.Model) { return rollupMembers(t, "map") },
		"shapes/frozen": func() ([]*graph.Graph, []*graphtest.Model) { return rollupMembers(t, "frozen") },
		"shapes/mixed":  func() ([]*graph.Graph, []*graphtest.Model) { return rollupMembers(t, "mixed") },
		"k8spaas":       windows,
	}
	for name, members := range inputs {
		for _, size := range []time.Duration{time.Hour, 10 * time.Minute} {
			t.Run(fmt.Sprintf("%s/%v", name, size), func(t *testing.T) {
				in, models := members()
				before := make([]memberState, len(in))
				memberArrays := make(map[any]bool)
				for i, g := range in {
					before[i] = stateOf(g)
					maps.Copy(memberArrays, backing(g))
				}
				for _, b := range buckets(in, size) {
					var got *graph.Graph
					var want *graphtest.Model
					var traces []trace.Context
					for i := b[0]; i < b[1]; i++ {
						got = graph.FoldRollup(got, in[i], size)
						got.Traces = append(got.Traces, in[i].Traces...)
						for p := range backing(got) {
							if memberArrays[p] {
								t.Fatal("the accumulator shares an array with a member")
							}
						}
						want = naiveFoldRollup(want, models[i], size)
						traces = append(traces, in[i].Traces...)
					}
					if err := want.Check(got); err != nil {
						t.Fatalf("bucket of members [%d, %d): %v", b[0], b[1], err)
					}
					if !slices.Equal(got.Traces, traces) {
						t.Fatalf("bucket of members [%d, %d): traces %v, want %v", b[0], b[1], got.Traces, traces)
					}
				}
				for i, g := range in {
					if after := stateOf(g); !reflect.DeepEqual(after, before[i]) {
						t.Fatalf("member %d changed while folding", i)
					}
				}
			})
		}
	}
}
