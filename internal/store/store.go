// Package store is the window-graph codec: the one byte layout every
// on-disk form of a communication-graph window uses. The durable,
// epoch-indexed history in internal/histstore frames one EncodeGraph body
// per record; nothing else in the repository serializes a graph.
//
// EncodeGraph is canonical: it writes nodes in Node.Less order and directed
// edges in (src, dst) node order — it walks the graph's CSR arrays, and
// DecodeGraph adopts the same layout without sorting or building a map
// graph. DecodeGraph also accepts the
// orders older encoders wrote — map-form edges in random order, and zoned
// IPv6 nodes written without their zone, which decode merged — so
// re-encoding what it decodes reaches a fixed point after one step. Edge
// time series are not persisted — the per-window graphs ARE the retained
// time series at window granularity.
package store

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"slices"
	"time"

	"cloudgraph/internal/graph"
)

// ErrBadFormat is returned for corrupt or truncated bytes.
var ErrBadFormat = errors.New("store: bad file format")

// Node kinds on disk.
const (
	kindIP     = 0
	kindIPPort = 1
	kindName   = 2
)

// Encoded sizes: the facet, times and node count before the node table,
// and the smallest encodings of one node and one edge, which also reject
// counts the remaining bytes cannot hold before anything is allocated for
// them.
const (
	headerBytes  = 1 + 8 + 8 + 4
	minNodeBytes = 1 + 16 + 1 + 2 + 2
	edgeBytes    = 4 + 4 + 8 + 8 + 8
)

// EncodeGraph serializes one window graph. Layout (little endian):
//
//	u8  facet
//	i64 start unix, i64 end unix
//	u32 node count, then per node in Node.Less order: u8 kind (0 ip,
//	    1 ipport, 2 name), [16]addr, u8 wasV4, u16 port, u16 textLen,
//	    text bytes — the service name for kind 2, the IPv6 zone (usually
//	    empty) for kinds 0 and 1
//	u32 directed edge count, then per edge in (src, dst) order: u32 src,
//	    u32 dst, u64 bytes, u64 packets, u64 conns
func EncodeGraph(g *graph.Graph) []byte { return AppendGraph(nil, g) }

// AppendGraph appends EncodeGraph(g) to dst, growing it at most once. The
// node table is the graph's sorted CSR node table and the edges are its CSR
// rows walked in order (src = row, dst = column), so the bytes come
// straight from the arrays.
func AppendGraph(dst []byte, g *graph.Graph) []byte {
	nodes, rowOff, cols, edges := g.CSR()
	size := headerBytes + 4 + len(edges)*edgeBytes
	for _, n := range nodes {
		_, text := nodeKind(n)
		size += minNodeBytes + len(text)
	}
	buf := slices.Grow(dst, size)
	buf = append(buf, byte(g.Facet))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Start.Unix()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.End.Unix()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nodes)))
	for _, n := range nodes {
		kind, text := nodeKind(n)
		buf = append(buf, kind)
		a16 := n.Addr.As16()
		if !n.Addr.IsValid() {
			a16 = [16]byte{}
		}
		buf = append(buf, a16[:]...)
		// Remember whether the address was v4 to restore faithfully.
		if n.Addr.Is4() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint16(buf, n.Port)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(text)))
		buf = append(buf, text...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	for src := range len(nodes) {
		for k := rowOff[src]; k < rowOff[src+1]; k++ {
			c := edges[k].Counters
			buf = binary.LittleEndian.AppendUint32(buf, uint32(src))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(cols[k]))
			buf = binary.LittleEndian.AppendUint64(buf, c.Bytes)
			buf = binary.LittleEndian.AppendUint64(buf, c.Packets)
			buf = binary.LittleEndian.AppendUint64(buf, c.Conns)
		}
	}
	return buf
}

// nodeKind returns a node's on-disk kind and its text field: the service
// name for a name node, the IPv6 zone (usually empty) otherwise.
func nodeKind(n graph.Node) (byte, string) {
	switch {
	case n.Name != "":
		return kindName, n.Name
	case n.Port != 0:
		return kindIPPort, n.Addr.Zone()
	}
	return kindIP, n.Addr.Zone()
}

// DecodeGraph is the inverse of EncodeGraph. It rejects with ErrBadFormat
// truncated or trailing bytes, counts larger than the input can hold,
// unknown node kinds, fields an address kind does not carry, edge
// endpoints outside the node table and repeated edges. Nodes and edges may
// come in any order. A canonical body lays out as CSR directly, an older
// one goes through graph.FromIndex's sort and merge.
func DecodeGraph(b []byte) (*graph.Graph, error) {
	r := &byteReader{b: b}
	facet := graph.Facet(r.u8())
	start := time.Unix(int64(r.u64()), 0).UTC()
	end := time.Unix(int64(r.u64()), 0).UTC()
	nNodes := uint64(r.u32())
	if r.err != nil || nNodes*minNodeBytes > uint64(len(r.b)) {
		return nil, ErrBadFormat
	}
	nodes := make([]graph.Node, 0, nNodes)
	for i := uint64(0); i < nNodes; i++ {
		n, ok := r.node()
		if !ok {
			return nil, ErrBadFormat
		}
		nodes = append(nodes, n)
	}
	nEdges := uint64(r.u32())
	if r.err != nil || nEdges*edgeBytes != uint64(len(r.b)) {
		return nil, ErrBadFormat
	}
	keys := make([]uint64, nEdges)
	edges := make([]graph.Edge, nEdges)
	for i := range keys {
		src, dst := r.u32(), r.u32()
		if src >= uint32(len(nodes)) || dst >= uint32(len(nodes)) {
			return nil, ErrBadFormat
		}
		keys[i] = uint64(src)<<32 | uint64(dst)
		edges[i].Counters = graph.Counters{Bytes: r.u64(), Packets: r.u64(), Conns: r.u64()}
	}
	g, ok := graph.FromIndex(facet, nodes, keys, edges)
	if !ok {
		return nil, ErrBadFormat
	}
	g.Start, g.End = start, end
	return g, nil
}

// byteReader is a tiny cursor with sticky errors.
type byteReader struct {
	b   []byte
	err error
}

// node reads one node table entry, reporting false for truncated or
// malformed entries. A name node's address and port fields are ignored.
func (r *byteReader) node() (graph.Node, bool) {
	kind := r.u8()
	a16 := [16]byte(r.take(16))
	wasV4 := r.u8()
	port := r.u16()
	text := string(r.take(int(r.u16())))
	if r.err != nil || wasV4 > 1 {
		return graph.Node{}, false
	}
	if kind == kindName {
		return graph.ServiceNode(text), text != ""
	}
	addr := netip.AddrFrom16(a16)
	switch {
	case wasV4 == 0:
		addr = addr.WithZone(text)
	case addr.Is4In6() && text == "":
		addr = addr.Unmap()
	default:
		return graph.Node{}, false
	}
	switch {
	case kind == kindIP && port == 0:
		return graph.IPNode(addr), true
	case kind == kindIPPort && port != 0:
		return graph.IPPortNode(addr, port), true
	}
	return graph.Node{}, false
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err = ErrBadFormat
		return make([]byte, n)
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *byteReader) u8() byte    { return r.take(1)[0] }
func (r *byteReader) u16() uint16 { return binary.LittleEndian.Uint16(r.take(2)) }
func (r *byteReader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *byteReader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }
