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

// naiveEncodeGraph is EncodeGraph as it was before it walked the CSR
// arrays: a Node-keyed index map over Nodes(), two lookups per edge through
// EachOut, and a sort of the edges. Kept as the reference the codec's
// bytes are pinned to.
func naiveEncodeGraph(g *graph.Graph) []byte {
	nodes := g.Nodes()
	idx := make(map[graph.Node]uint32, len(nodes))
	buf := make([]byte, 0, 64+len(nodes)*24)
	buf = append(buf, byte(g.Facet))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Start.Unix()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.End.Unix()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nodes)))
	for i, n := range nodes {
		idx[n] = uint32(i)
		kind, text := byte(kindIP), n.Addr.Zone()
		switch {
		case n.Name != "":
			kind, text = kindName, n.Name
		case n.Port != 0:
			kind = kindIPPort
		}
		buf = append(buf, kind)
		a16 := n.Addr.As16()
		if !n.Addr.IsValid() {
			a16 = [16]byte{}
		}
		buf = append(buf, a16[:]...)
		if n.Addr.Is4() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint16(buf, n.Port)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(text)))
		buf = append(buf, text...)
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
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, e.src)
		buf = binary.LittleEndian.AppendUint32(buf, e.dst)
		buf = binary.LittleEndian.AppendUint64(buf, e.c.Bytes)
		buf = binary.LittleEndian.AppendUint64(buf, e.c.Packets)
		buf = binary.LittleEndian.AppendUint64(buf, e.c.Conns)
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
// bytes of its retired Node-map body — every node kind, zoned IPv6 twins,
// graphtest's shapes, a k8spaas minute — and AppendGraph appends those
// bytes after whatever dst already holds.
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
