package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"os"
	"testing"
	"time"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

var t0 = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)

func randomGraph(rng *rand.Rand, start time.Time) *graph.Graph {
	m := graphtest.NewModel(graph.FacetIP)
	m.Start, m.End = start, start.Add(time.Hour)
	for i := 0; i < 20+rng.Intn(30); i++ {
		a := graph.IPNode(netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + rng.Intn(30))}))
		b := graph.IPNode(netip.AddrFrom4([4]byte{10, 0, 1, byte(1 + rng.Intn(30))}))
		if a == b {
			continue
		}
		m.Add(a, b, graph.Counters{
			Bytes:   uint64(rng.Intn(1_000_000)),
			Packets: uint64(rng.Intn(1000)),
			Conns:   uint64(1 + rng.Intn(10)),
		})
	}
	// A few exotic nodes: IPv6, IP-port, service, collapsed, isolated, and
	// scoped IPv6 nodes that differ only by zone.
	m.Add(graph.IPNode(netip.MustParseAddr("2001:db8::1")), graph.Collapsed, graph.Counters{Bytes: 7})
	m.Add(graph.IPPortNode(netip.MustParseAddr("10.9.9.9"), 443), graph.ServiceNode("svc"), graph.Counters{Bytes: 9, Conns: 1})
	m.Vertex(graph.IPNode(netip.MustParseAddr("192.0.2.200")))
	m.Add(graph.IPNode(netip.MustParseAddr("fe80::1%eth0")), graph.IPNode(netip.MustParseAddr("fe80::1%eth1")), graph.Counters{Bytes: 11})
	m.Add(graph.IPPortNode(netip.MustParseAddr("fe80::1"), 22), graph.IPPortNode(netip.MustParseAddr("fe80::1%eth0"), 22), graph.Counters{Bytes: 13})
	return m.Graph()
}

// ip parses a FacetIP node.
func ip(s string) graph.Node { return graph.IPNode(netip.MustParseAddr(s)) }

func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.Facet != b.Facet || !a.Start.Equal(b.Start) || !a.End.Equal(b.End) {
		t.Fatalf("meta mismatch: %v %v-%v vs %v %v-%v", a.Facet, a.Start, a.End, b.Facet, b.Start, b.End)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	an, bn := a.Nodes(), b.Nodes()
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("node %d: %v vs %v", i, an[i], bn[i])
		}
	}
	for _, n := range an {
		for _, m := range an {
			ae, be := a.OutEdge(n, m), b.OutEdge(n, m)
			switch {
			case ae == nil && be == nil:
			case ae == nil || be == nil:
				t.Fatalf("edge presence mismatch %v->%v", n, m)
			case ae.Counters != be.Counters:
				t.Fatalf("edge %v->%v: %+v vs %+v", n, m, ae.Counters, be.Counters)
			}
		}
	}
}

// TestRoundTrip: graphs with every node kind — IPv4, IPv6, ip:port,
// service, the collapse bucket, an isolated node, IPv6 nodes that differ
// only by zone — and the graphtest shapes (self-loops, one-way and
// zero-byte edges) survive EncodeGraph→DecodeGraph, matching the map
// reference; and the encoding is canonical: the decoded graph re-encodes to
// the same bytes.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var gs []*graph.Graph
	for h := 0; h < 5; h++ {
		gs = append(gs, randomGraph(rng, t0.Add(time.Duration(h)*time.Hour)))
	}
	for _, c := range graphtest.Cases(5) {
		c.G.Start, c.G.End = t0, t0.Add(time.Minute)
		gs = append(gs, c.G)
	}
	for i, g := range gs {
		b := EncodeGraph(g)
		got, err := DecodeGraph(b)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		sameGraph(t, g, got)
		assertMatchesMapReference(t, b)
		if re := EncodeGraph(got); !bytes.Equal(re, b) {
			t.Fatalf("graph %d: decoded graph re-encodes to different bytes", i)
		}
	}
}

// mapDecode is the reference decoder: it parses a body exactly as
// DecodeGraph does but accumulates it node by node and edge by edge in a
// graphtest model, which sums the edges of nodes that decode equal.
func mapDecode(b []byte) (*graphtest.Model, error) {
	r := &byteReader{b: b}
	m := graphtest.NewModel(graph.Facet(r.u8()))
	m.Start = time.Unix(int64(r.u64()), 0).UTC()
	m.End = time.Unix(int64(r.u64()), 0).UTC()
	nNodes := uint64(r.u32())
	if r.err != nil || nNodes*minNodeBytes > uint64(len(r.b)) {
		return nil, ErrBadFormat
	}
	var nodes []graph.Node
	for i := uint64(0); i < nNodes; i++ {
		n, ok := r.node()
		if !ok {
			return nil, ErrBadFormat
		}
		nodes = append(nodes, n)
		m.Vertex(n)
	}
	nEdges := uint64(r.u32())
	if r.err != nil || nEdges*edgeBytes != uint64(len(r.b)) {
		return nil, ErrBadFormat
	}
	seen := make(map[[2]uint32]bool)
	for i := uint64(0); i < nEdges; i++ {
		src, dst := r.u32(), r.u32()
		c := graph.Counters{Bytes: r.u64(), Packets: r.u64(), Conns: r.u64()}
		if src >= uint32(len(nodes)) || dst >= uint32(len(nodes)) || seen[[2]uint32{src, dst}] {
			return nil, ErrBadFormat
		}
		seen[[2]uint32{src, dst}] = true
		m.Add(nodes[src], nodes[dst], c)
	}
	return m, nil
}

// assertMatchesMapReference checks that DecodeGraph accepts exactly what
// mapDecode accepts and returns the reference model's graph.
func assertMatchesMapReference(t *testing.T, b []byte) {
	t.Helper()
	got, err := DecodeGraph(b)
	ref, rerr := mapDecode(b)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("DecodeGraph err %v, map reference err %v", err, rerr)
	}
	if err != nil {
		return
	}
	if err := ref.Check(got); err != nil {
		t.Fatalf("decoded graph differs from the map reference: %v", err)
	}
}

// TestTruncatedWindow: a body cut short anywhere — mid-node, mid-edge, or
// exactly at a field boundary — is ErrBadFormat, never a partial graph.
func TestTruncatedWindow(t *testing.T) {
	b := EncodeGraph(randomGraph(rand.New(rand.NewSource(2)), t0))
	for n := 0; n < len(b); n++ {
		if g, err := DecodeGraph(b[:n]); !errors.Is(err, ErrBadFormat) || g != nil {
			t.Fatalf("truncated to %d/%d bytes: graph %v, err %v", n, len(b), g, err)
		}
	}
}

// TestOpenErrors: foreign and malformed bodies are ErrBadFormat.
func TestOpenErrors(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), t0)
	valid := EncodeGraph(g)
	// Offsets of the first node's kind byte (after facet and two times)
	// and of the edge count (before the edge table).
	const node0 = 1 + 8 + 8 + 4
	nEdges := g.NumDirectedEdges()
	edges0 := len(valid) - nEdges*edgeBytes
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := map[string][]byte{
		"empty":         nil,
		"foreign":       []byte("not a store file at all"),
		"trailing byte": mutate(func(b []byte) []byte { return append(b, 0) }),
		"unknown kind":  mutate(func(b []byte) []byte { b[node0] = 9; return b }),
		"bad v4 flag":   mutate(func(b []byte) []byte { b[node0+17] = 2; return b }),
		"edge node out of range": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[edges0:], 1<<31)
			return b
		}),
		"zone on v4 node": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[node0+20:], 1)
			return b
		}),
		"repeated edge": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[edges0-4:], uint32(nEdges+1))
			return append(b, b[len(b)-edgeBytes:]...)
		}),
	}
	for name, b := range cases {
		if g, err := DecodeGraph(b); !errors.Is(err, ErrBadFormat) || g != nil {
			t.Errorf("%s: graph %v, err %v", name, g, err)
		}
	}
}

// TestDecodeAcceptsUnsortedEdges: the edge table may come in any order —
// map-form graphs were once encoded in map iteration order — and decodes
// to the same graph.
func TestDecodeAcceptsUnsortedEdges(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(4)), t0)
	b := EncodeGraph(g)
	edges0 := len(b) - g.NumDirectedEdges()*edgeBytes
	first := append([]byte(nil), b[edges0:edges0+edgeBytes]...)
	copy(b[edges0:], b[edges0+edgeBytes:edges0+2*edgeBytes])
	copy(b[edges0+edgeBytes:], first)
	got, err := DecodeGraph(b)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
	assertMatchesMapReference(t, b)
}

// TestDecodeMapFormRecord decodes a record checked in from an encoder that
// wrote map-form edges in map iteration order and dropped IPv6 zones. The
// edges are out of (src, dst) order and fe80::1%eth0 and fe80::1%eth1
// share one node entry; the record decodes with the two merged, and
// re-encoding it reaches a fixed point.
func TestDecodeMapFormRecord(t *testing.T) {
	b, err := os.ReadFile("testdata/mapform_unsorted_zoned.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGraph(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	wantM := graphtest.NewModel(graph.FacetIP)
	wantM.Start, wantM.End = t0, t0.Add(time.Hour)
	wantM.Add(ip("10.0.0.1"), ip("10.0.0.2"), graph.Counters{Bytes: 100, Packets: 2, Conns: 1})
	wantM.Add(ip("10.0.0.2"), ip("10.0.0.3"), graph.Counters{Bytes: 200, Packets: 3, Conns: 1})
	wantM.Add(ip("10.0.0.3"), ip("10.0.0.1"), graph.Counters{Bytes: 300, Packets: 4, Conns: 2})
	wantM.Add(ip("2001:db8::1"), ip("10.0.0.1"), graph.Counters{Bytes: 400, Packets: 5, Conns: 1})
	wantM.Add(ip("fe80::1"), ip("10.0.0.3"), graph.Counters{Bytes: 500, Packets: 6, Conns: 1})
	wantM.Add(ip("fe80::1"), ip("10.0.0.2"), graph.Counters{Bytes: 600, Packets: 7, Conns: 1})
	wantM.Add(graph.IPPortNode(netip.MustParseAddr("10.9.9.9"), 443), graph.ServiceNode("svc"), graph.Counters{Bytes: 9, Conns: 1})
	wantM.Add(ip("2001:db8::1"), graph.Collapsed, graph.Counters{Bytes: 7})
	wantM.Vertex(ip("192.0.2.200"))
	want := wantM.Graph()
	sameGraph(t, want, got)
	assertMatchesMapReference(t, b)
	assertFixedPoint(t, got)

	// Point the fe80::1%eth1 edge (the sixth, to 10.0.0.2) at the
	// fe80::1%eth0 edge's destination: once the twins merge, the two edges
	// coincide and sum.
	edge5 := len(b) - (8-5)*edgeBytes
	binary.LittleEndian.PutUint32(b[edge5+4:], 2)
	got, err = DecodeGraph(b)
	if err != nil {
		t.Fatalf("decode coinciding twins: %v", err)
	}
	if c := got.OutEdge(ip("fe80::1"), ip("10.0.0.3")).Counters; c != (graph.Counters{Bytes: 1100, Packets: 13, Conns: 2}) {
		t.Fatalf("merged twin edges: %+v, want the sum of both", c)
	}
	assertMatchesMapReference(t, b)
}

// assertFixedPoint checks that g's encoding decodes and re-encodes to
// itself.
func assertFixedPoint(t *testing.T, g *graph.Graph) {
	t.Helper()
	b := EncodeGraph(g)
	again, err := DecodeGraph(b)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if re := EncodeGraph(again); !bytes.Equal(re, b) {
		t.Fatalf("%d encoded bytes re-encode to %d different bytes", len(b), len(re))
	}
}

// hostileNodeCount is the input that once made DecodeGraph allocate a
// 0xFFFFFFF0-entry node table: facet, two zero times, a node count no
// 25-byte body can hold, and four bytes of padding.
var hostileNodeCount = []byte{
	0,
	0, 0, 0, 0, 0, 0, 0, 0,
	0, 0, 0, 0, 0, 0, 0, 0,
	0xF0, 0xFF, 0xFF, 0xFF,
	0, 0, 0, 0,
}

func TestDecodeRejectsImpossibleCounts(t *testing.T) {
	if _, err := DecodeGraph(hostileNodeCount); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("hostile node count: err %v, want ErrBadFormat", err)
	}
	// An edge count past the remaining bytes, after an empty node table.
	b := append(hostileNodeCount[:17:17], 0, 0, 0, 0, 0xF0, 0xFF, 0xFF, 0xFF)
	if _, err := DecodeGraph(b); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("hostile edge count: err %v, want ErrBadFormat", err)
	}
}

// FuzzDecodeGraph: DecodeGraph never panics (nor allocates past what its
// input can describe), accepts exactly what the map reference accepts and
// decodes it to the same graph, and the encoding of whatever it accepts is
// a fixed point: it decodes and re-encodes to itself.
func FuzzDecodeGraph(f *testing.F) {
	// Seeds stay small: the fuzzer minimizes every new-coverage input, at a
	// cost quadratic in its length.
	smallM := graphtest.NewModel(graph.FacetIP)
	smallM.Start, smallM.End = t0, t0.Add(time.Minute)
	smallM.Add(graph.IPNode(netip.MustParseAddr("10.0.0.1")), graph.IPNode(netip.MustParseAddr("2001:db8::1")), graph.Counters{Bytes: 7, Conns: 1})
	smallM.Add(graph.IPPortNode(netip.MustParseAddr("10.9.9.9"), 443), graph.Collapsed, graph.Counters{Packets: 2})
	small := smallM.Graph()
	f.Add(EncodeGraph(small))
	f.Add(EncodeGraph(graph.New(graph.FacetIPPort)))
	f.Add(hostileNodeCount)
	f.Add([]byte("not a store file at all"))
	if b, err := os.ReadFile("testdata/mapform_unsorted_zoned.bin"); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := DecodeGraph(b)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) || g != nil {
				t.Fatalf("graph %v, err %v", g, err)
			}
			return
		}
		assertMatchesMapReference(t, b)
		assertFixedPoint(t, g)
	})
}
