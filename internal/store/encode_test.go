package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
	"cloudgraph/internal/nicsim"
)

// naiveEncodeGraph is the v2 layout written the plain way, sharing no
// code with the encoder: a Node-keyed index map over Nodes(), two lookups
// per edge through EachOut, a sort of the edges, and the rows counted from
// the sorted list. Kept as the reference the codec's bytes are pinned to.
func naiveEncodeGraph(g *graph.Graph) []byte {
	nodes := g.Nodes()
	idx := make(map[graph.Node]uint32, len(nodes))
	text := func(buf []byte, s string) []byte {
		return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
	}
	buf := []byte{0x82, byte(g.Facet)}
	buf = binary.AppendVarint(buf, g.Start.Unix())
	buf = binary.AppendVarint(buf, g.End.Unix()-g.Start.Unix())
	buf = binary.AppendUvarint(buf, uint64(len(nodes)))
	for i, n := range nodes {
		idx[n] = uint32(i)
		switch {
		case n.Name != "":
			buf = text(append(buf, 2), n.Name)
			continue
		case n.Port != 0:
			buf = append(buf, 1)
		default:
			buf = append(buf, 0)
		}
		if n.Addr.Is4() {
			buf[len(buf)-1] |= 0x04
			a4 := n.Addr.As4()
			buf = append(buf, a4[:]...)
		} else {
			if n.Addr.Zone() != "" {
				buf[len(buf)-1] |= 0x08
			}
			a16 := n.Addr.As16()
			buf = append(buf, a16[:]...)
		}
		if n.Port != 0 {
			buf = binary.AppendUvarint(buf, uint64(n.Port))
		}
		if z := n.Addr.Zone(); z != "" {
			buf = text(buf, z)
		}
	}
	type edge struct {
		src, dst uint32
		c        graph.Counters
	}
	var edges []edge
	g.EachOut(func(src, dst graph.Node, e *graph.Edge) {
		edges = append(edges, edge{src: idx[src], dst: idx[dst], c: e.Counters})
	})
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst))
	})
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for src := range uint32(len(nodes)) {
		var row []edge
		for _, e := range edges {
			if e.src == src {
				row = append(row, e)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		prev := int64(-1)
		for _, e := range row {
			buf = binary.AppendUvarint(buf, uint64(int64(e.dst)-prev-1))
			buf = binary.AppendUvarint(buf, e.c.Bytes)
			buf = binary.AppendUvarint(buf, e.c.Packets)
			buf = binary.AppendUvarint(buf, e.c.Conns)
			prev = int64(e.dst)
		}
	}
	return buf
}

// k8spaasMinute builds the first minute of a k8spaas cluster at scale 0.25
// as the engine seals it: frozen, by a graph.Builder.
func k8spaasMinute(t *testing.T) *graph.Graph {
	t.Helper()
	spec, err := cluster.Preset("k8spaas", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var recs []flowlog.Record
	if _, err := c.Run(t0, 1, nicsim.CollectorFunc(func(batch []flowlog.Record) error {
		recs = append(recs, batch...)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	g := graph.Build(recs, graph.BuilderOptions{})
	g.Start, g.End = t0, t0.Add(time.Minute)
	if g.NumDirectedEdges() < 1000 {
		t.Fatalf("k8spaas minute has only %d directed edges", g.NumDirectedEdges())
	}
	return g
}

// TestEncodeGraphMatchesNaive: the CSR-walking encoder writes exactly the
// v2 bytes of the plain Node-map reference — every node kind, zoned IPv6
// twins, graphtest's shapes, a k8spaas minute — and AppendGraph appends
// those bytes after whatever dst already holds.
func TestEncodeGraphMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gs := []*graph.Graph{graph.New(graph.FacetIPPort), k8spaasMinute(t)}
	for h := 0; h < 4; h++ {
		gs = append(gs, randomGraph(rng, t0.Add(time.Duration(h)*time.Hour)))
	}
	for _, c := range graphtest.Cases(3) {
		c.G.Start, c.G.End = t0, t0.Add(time.Minute)
		gs = append(gs, c.G)
	}
	prefix := []byte("frame header")
	for i, g := range gs {
		want := naiveEncodeGraph(g)
		if got := EncodeGraph(g); !bytes.Equal(got, want) {
			t.Fatalf("graph %d: EncodeGraph differs from the reference", i)
		}
		got := AppendGraph(slices.Clip(prefix), g)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("graph %d: AppendGraph differs from prefix + reference", i)
		}
	}
}

// TestEncodeGraphAllocBudget gates the codec's allocations on a frozen
// k8spaas minute window (160 nodes, 3030 directed edges): the durable
// append encodes every sealed window. Walking the CSR arrays into a buffer
// sized once costs one allocation, against 32 for the Node-keyed map, the
// edge slice and its regrowth it replaced; AppendGraph into a buffer with
// room costs none.
func TestEncodeGraphAllocBudget(t *testing.T) {
	const budget = 4
	g := k8spaasMinute(t)
	if avg := testing.AllocsPerRun(20, func() { EncodeGraph(g) }); avg > budget {
		t.Fatalf("EncodeGraph allocates %.0f times per k8spaas minute window, budget %d", avg, budget)
	} else {
		t.Logf("EncodeGraph: %.0f allocs per window (budget %d)", avg, budget)
	}
	buf := EncodeGraph(g)
	if avg := testing.AllocsPerRun(20, func() { buf = AppendGraph(buf[:0], g) }); avg != 0 {
		t.Fatalf("AppendGraph into a buffer with room allocates %.0f times", avg)
	}
}
