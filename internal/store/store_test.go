package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
	"cloudgraph/internal/store/storetest"
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
	// A few exotic nodes: IPv6, IP-port, named, collapsed, isolated, and
	// scoped IPv6 nodes that differ only by zone.
	m.Add(graph.IPNode(netip.MustParseAddr("2001:db8::1")), graph.Collapsed, graph.Counters{Bytes: 7})
	m.Add(graph.IPPortNode(netip.MustParseAddr("10.9.9.9"), 443), graph.Node{Name: "svc"}, graph.Counters{Bytes: 9, Conns: 1})
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
// name, the collapse bucket, an isolated node, IPv6 nodes that differ
// only by zone — and the graphtest shapes (self-loops, one-way and
// zero-byte edges) survive EncodeGraph→DecodeGraph, matching the map
// reference; and the encoding is canonical: the decoded graph re-encodes to
// the same bytes. Their v1 bodies, as older versions wrote them, decode to
// the same graphs.
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
		v1 := storetest.EncodeV1(g)
		if got, err = DecodeGraph(v1); err != nil {
			t.Fatalf("graph %d as v1: %v", i, err)
		}
		sameGraph(t, g, got)
		assertMatchesMapReference(t, v1)
	}
}

// mapDecode is the reference decoder: it parses a body exactly as
// DecodeGraph does but accumulates it node by node and edge by edge in a
// graphtest model, which sums the edges of nodes that decode equal.
func mapDecode(b []byte) (*graphtest.Model, error) {
	if len(b) > 0 && b[0] == version2 {
		return mapDecodeV2(b[1:])
	}
	r := &byteReader{b: b}
	m := graphtest.NewModel(graph.Facet(r.u8()))
	m.Start = time.Unix(int64(r.u64()), 0).UTC()
	m.End = time.Unix(int64(r.u64()), 0).UTC()
	nNodes := uint64(r.u32())
	if r.err != nil || nNodes*minNodeBytes > uint64(r.rest()) {
		return nil, ErrBadFormat
	}
	var nodes []graph.Node
	for i := uint64(0); i < nNodes; i++ {
		n, ok := r.nodeV1()
		if !ok {
			return nil, ErrBadFormat
		}
		nodes = append(nodes, n)
		m.Vertex(n)
	}
	nEdges := uint64(r.u32())
	if r.err != nil || nEdges*edgeBytes != uint64(r.rest()) {
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

// mapDecodeV2 is mapDecode for a v2 body after its version byte: the edges
// of each row go into the model by destination node, each destination
// after the one before.
func mapDecodeV2(b []byte) (*graphtest.Model, error) {
	r := &byteReader{b: b}
	m := graphtest.NewModel(graph.Facet(r.u8()))
	start := r.varint()
	m.Start = time.Unix(start, 0).UTC()
	m.End = time.Unix(start+r.varint(), 0).UTC()
	nNodes := r.count(minNodeBytesV2)
	var nodes []graph.Node
	for i := 0; i < nNodes && r.err == nil; i++ {
		n, ok := r.nodeV2()
		if !ok || (i > 0 && !nodes[i-1].Less(n)) {
			return nil, ErrBadFormat
		}
		nodes = append(nodes, n)
		m.Vertex(n)
	}
	nEdges := r.count(minEdgeBytesV2)
	if r.err != nil || r.rest() < nNodes+nEdges*minEdgeBytesV2 {
		return nil, ErrBadFormat
	}
	edges := 0
	for _, src := range nodes {
		rowLen := r.uvarint()
		if rowLen > uint64(nEdges-edges) {
			return nil, ErrBadFormat
		}
		dst := -1
		for range rowLen {
			dst += 1 + int(min(r.uvarint(), uint64(nNodes)))
			c := graph.Counters{Bytes: r.uvarint(), Packets: r.uvarint(), Conns: r.uvarint()}
			if dst >= nNodes {
				return nil, ErrBadFormat
			}
			m.Add(src, nodes[dst], c)
			edges++
		}
	}
	if r.err != nil || edges != nEdges || r.rest() != 0 {
		return nil, ErrBadFormat
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
// exactly at a field boundary — is ErrBadFormat, never a partial graph, in
// either version.
func TestTruncatedWindow(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(2)), t0)
	for _, b := range [][]byte{EncodeGraph(g), storetest.EncodeV1(g)} {
		for n := 0; n < len(b); n++ {
			if g, err := DecodeGraph(b[:n]); !errors.Is(err, ErrBadFormat) || g != nil {
				t.Fatalf("truncated to %d/%d bytes: graph %v, err %v", n, len(b), g, err)
			}
		}
	}
}

// v2Body assembles a v2 body by hand: the header of an empty hour window
// at t0 up to its node count, then parts verbatim — node count, node
// entries, edge count, rows.
func v2Body(parts ...[]byte) []byte {
	empty := graph.New(graph.FacetIP)
	empty.Start, empty.End = t0, t0.Add(time.Hour)
	b := EncodeGraph(empty)
	b = b[:len(b)-2] // drop the zero node and edge counts
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// Hand-written v2 parts: counts or row lengths of one and zero, an IPv4
// node, the port 443, and an edge to the row's first node (destination
// delta 0, then bytes, packets and conns).
var (
	one     = []byte{1}
	zero    = []byte{0}
	v4Node  = []byte{kindIP | flagV4, 10, 0, 0, 1}
	port443 = []byte{0xBB, 0x03}
	edge0   = []byte{0, 7, 1, 1}
)

// TestOpenErrors: foreign and malformed bodies are ErrBadFormat — v1
// bodies with a field mutated, and v2 bodies that are malformed or not
// canonical, whose valid neighbours are checked to decode first.
func TestOpenErrors(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), t0)
	valid := storetest.EncodeV1(g)
	// Offsets of the first node's kind byte (after facet and two times)
	// and of the edge count (before the edge table).
	const node0 = 1 + 8 + 8 + 4
	nEdges := g.NumDirectedEdges()
	edges0 := len(valid) - nEdges*edgeBytes
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	ipPort := func(port ...byte) []byte {
		return append([]byte{kindIPPort | flagV4, 10, 9, 9, 9}, port...)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	v2 := EncodeGraph(g)
	for name, b := range map[string][]byte{
		"v2 randomGraph":  v2,
		"v2 one node":     v2Body(one, v4Node, zero, zero),
		"v2 ip:port node": v2Body(one, ipPort(port443...), zero, zero),
		"v2 self-loop":    v2Body(one, v4Node, one, one, edge0),
		"v2 zoned":        v2Body(one, cat([]byte{kindIP | flagZoned}, make([]byte, 16), []byte{1, 'z'}), zero, zero),
	} {
		if _, err := DecodeGraph(b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
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

		"v2 version only":        {version2},
		"v2 trailing byte":       append(append([]byte(nil), v2...), 0),
		"v2 unknown flag":        v2Body(one, []byte{kindIP | 0x10, 10, 0, 0, 1}, zero, zero),
		"v2 unknown kind":        v2Body(one, []byte{3 | flagV4, 10, 0, 0, 1}, zero, zero),
		"v2 v4 and zoned":        v2Body(one, []byte{kindIP | flagV4 | flagZoned, 10, 0, 0, 1, 1, 'z'}, zero, zero),
		"v2 empty zone":          v2Body(one, cat([]byte{kindIP | flagZoned}, make([]byte, 16), zero), zero, zero),
		"v2 name with v4 flag":   v2Body(one, []byte{kindName | flagV4, 1, 's'}, zero, zero),
		"v2 empty name":          v2Body(one, []byte{kindName, 0}, zero, zero),
		"v2 zero port":           v2Body(one, ipPort(0), zero, zero),
		"v2 port over 65535":     v2Body(one, ipPort(0x80, 0x80, 0x04), zero, zero),
		"v2 non-minimal port":    v2Body(one, ipPort(0xBB, 0x83, 0x00), zero, zero),
		"v2 non-minimal count":   v2Body([]byte{0x81, 0x00}, v4Node, zero, zero),
		"v2 non-minimal counter": v2Body(one, v4Node, one, one, []byte{0, 0x87, 0x00, 1, 1}),
		"v2 nodes out of order":  v2Body([]byte{2}, []byte{kindIP | flagV4, 10, 0, 0, 2}, v4Node, zero, zero, zero),
		"v2 repeated node":       v2Body([]byte{2}, v4Node, v4Node, zero, zero, zero),
		"v2 edge out of range":   v2Body(one, v4Node, one, one, []byte{1, 7, 1, 1}),
		"v2 row past edge count": v2Body(one, v4Node, one, []byte{2}, edge0, edge0),
		"v2 rows short of count": v2Body(one, v4Node, []byte{2}, one, edge0, edge0),
	}
	for name, b := range cases {
		if g, err := DecodeGraph(b); !errors.Is(err, ErrBadFormat) || g != nil {
			t.Errorf("%s: graph %v, err %v", name, g, err)
		}
	}
}

// TestDecodeAcceptsUnsortedEdges: a v1 edge table may come in any order —
// map-form graphs were once encoded in map iteration order — and decodes
// to the same graph.
func TestDecodeAcceptsUnsortedEdges(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(4)), t0)
	b := storetest.EncodeV1(g)
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
	wantM.Add(graph.IPPortNode(netip.MustParseAddr("10.9.9.9"), 443), graph.Node{Name: "svc"}, graph.Counters{Bytes: 9, Conns: 1})
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

// TestDecodeRejectsImpossibleCounts: a node count, edge count or v2 row
// length the remaining bytes cannot hold is ErrBadFormat, and a hostile
// body under 32 bytes allocates nothing for the count it declares: at most
// the few bytes its real entries need.
func TestDecodeRejectsImpossibleCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 0xFFFFFFF0)
	pad := []byte{0, 0, 0, 0}
	for name, b := range map[string][]byte{
		"v1 node count": hostileNodeCount,
		// An edge count past the remaining bytes, after an empty node table.
		"v1 edge count": append(hostileNodeCount[:17:17], 0, 0, 0, 0, 0xF0, 0xFF, 0xFF, 0xFF),
		"v2 node count": v2Body(huge, pad),
		"v2 edge count": v2Body(zero, huge, pad),
		"v2 row length": v2Body(one, v4Node, one, huge, pad),
	} {
		if len(b) >= 32 {
			t.Fatalf("%s: %d-byte input, want under 32", name, len(b))
		}
		if _, err := DecodeGraph(b); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s: err %v, want ErrBadFormat", name, err)
		}
		if n := bytesPerRun(100, func() { DecodeGraph(b) }); n > 1<<10 {
			t.Fatalf("%s: rejecting allocates %d bytes", name, n)
		}
	}
}

// bytesPerRun is the average number of bytes f allocates per call.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDecodeGolden pins the v2 writer to checked-in bodies: one holding
// every node kind — IPv4, IPv6, zoned IPv6, ip:port, name and the collapse
// bucket — with a self-loop and an isolated node, and one endpoint-facet
// window, whose facet byte pins graph.FacetEndpoint's value. Each body
// decodes to the graph it was written from, and that graph encodes to the
// body byte for byte.
func TestDecodeGolden(t *testing.T) {
	for _, golden := range []struct {
		file string
		want *graph.Graph
	}{
		{"testdata/v2_every_kind.bin", everyKind()},
		{"testdata/v2_endpoint_facet.bin", endpointWindow()},
	} {
		b, err := os.ReadFile(golden.file)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeGraph(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", golden.file, err)
		}
		sameGraph(t, golden.want, got)
		assertMatchesMapReference(t, b)
		if enc := EncodeGraph(golden.want); !bytes.Equal(enc, b) {
			t.Fatalf("%s: EncodeGraph writes %x, golden body is %x", golden.file, enc, b)
		}
	}
}

// everyKind is the graph testdata/v2_every_kind.bin holds.
func everyKind() *graph.Graph {
	m := graphtest.NewModel(graph.FacetIP)
	m.Start, m.End = t0, t0.Add(time.Minute)
	m.Add(ip("10.0.0.1"), ip("2001:db8::1"), graph.Counters{Bytes: 1500, Packets: 3, Conns: 1})
	m.Add(ip("2001:db8::1"), ip("10.0.0.1"), graph.Counters{Bytes: 300, Packets: 2, Conns: 1})
	m.Add(ip("fe80::1%eth0"), ip("10.0.0.1"), graph.Counters{Bytes: 64, Packets: 1})
	m.Add(graph.IPPortNode(netip.MustParseAddr("10.9.9.9"), 443), graph.Node{Name: "svc"}, graph.Counters{Bytes: 1 << 40, Packets: 1 << 20, Conns: 70000})
	m.Add(ip("10.0.0.1"), graph.Collapsed, graph.Counters{Bytes: 7, Packets: 1, Conns: 1})
	m.Add(graph.Node{Name: "svc"}, graph.Node{Name: "svc"}, graph.Counters{Bytes: 9, Packets: 1, Conns: 1})
	m.Vertex(ip("192.0.2.200"))
	return m.Graph()
}

// endpointWindow is the FacetEndpoint window testdata/v2_endpoint_facet.bin
// holds: services keyed by ip:port, their clients by IP.
func endpointWindow() *graph.Graph {
	svc := func(s string) graph.Node {
		ap := netip.MustParseAddrPort(s)
		return graph.IPPortNode(ap.Addr(), ap.Port())
	}
	m := graphtest.NewModel(graph.FacetEndpoint)
	m.Start, m.End = t0, t0.Add(time.Minute)
	m.Add(ip("10.0.0.1"), svc("10.0.0.2:443"), graph.Counters{Bytes: 1500, Packets: 3, Conns: 2})
	m.Add(svc("10.0.0.2:443"), ip("10.0.0.1"), graph.Counters{Bytes: 90000, Packets: 70})
	m.Add(ip("10.0.0.2"), svc("10.0.0.3:5432"), graph.Counters{Bytes: 800, Packets: 6, Conns: 1})
	m.Add(ip("2001:db8::7"), svc("10.0.0.2:443"), graph.Counters{Bytes: 64, Packets: 1, Conns: 1})
	return m.Graph()
}

// FuzzDecodeGraph: DecodeGraph never panics (nor allocates past what its
// input can describe), accepts exactly what the map reference accepts and
// decodes it to the same graph, and the encoding of whatever it accepts is
// a fixed point: it decodes and re-encodes to itself. An accepted v2 input
// is that encoding: v2 is canonical, so it re-encodes to exactly itself.
func FuzzDecodeGraph(f *testing.F) {
	// Seeds stay small: the fuzzer minimizes every new-coverage input, at a
	// cost quadratic in its length.
	smallM := graphtest.NewModel(graph.FacetIP)
	smallM.Start, smallM.End = t0, t0.Add(time.Minute)
	smallM.Add(graph.IPNode(netip.MustParseAddr("10.0.0.1")), graph.IPNode(netip.MustParseAddr("2001:db8::1")), graph.Counters{Bytes: 7, Conns: 1})
	smallM.Add(graph.IPPortNode(netip.MustParseAddr("10.9.9.9"), 443), graph.Collapsed, graph.Counters{Packets: 2})
	small := smallM.Graph()
	for _, g := range []*graph.Graph{small, graph.New(graph.FacetIPPort)} {
		f.Add(EncodeGraph(g))
		f.Add(storetest.EncodeV1(g))
	}
	f.Add(hostileNodeCount)
	f.Add(v2Body(one, v4Node, one, binary.AppendUvarint(nil, 0xFFFFFFF0), []byte{0, 0, 0, 0}))
	f.Add([]byte("not a store file at all"))
	for _, file := range []string{"testdata/mapform_unsorted_zoned.bin", "testdata/v2_every_kind.bin"} {
		if b, err := os.ReadFile(file); err == nil {
			f.Add(b)
		}
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
		if b[0] == version2 && !bytes.Equal(EncodeGraph(g), b) {
			t.Fatalf("accepted v2 input %x re-encodes to different bytes", b)
		}
	})
}
