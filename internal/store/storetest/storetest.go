// Package storetest is the test side of package store: EncodeV1, the
// fixed-width v1 window layout older versions wrote. store.DecodeGraph
// still reads v1 so their data directories open, but nothing outside tests
// writes it; store.EncodeGraph is the one writer.
package storetest

import (
	"cmp"
	"encoding/binary"
	"slices"

	"cloudgraph/internal/graph"
)

// EncodeV1 serializes g in the v1 layout, the way the v1 encoder did
// before it walked the CSR arrays: a Node-keyed index map over Nodes(), two
// lookups per edge through EachOut, and a sort of the edges. Layout (little
// endian):
//
//	u8  facet
//	i64 start unix, i64 end unix
//	u32 node count, then per node in Node.Less order: u8 kind (0 ip,
//	    1 ipport, 2 name), [16]addr, u8 wasV4, u16 port, u16 textLen,
//	    text bytes — the service name for kind 2, the IPv6 zone (usually
//	    empty) for kinds 0 and 1
//	u32 directed edge count, then per edge in (src, dst) order: u32 src,
//	    u32 dst, u64 bytes, u64 packets, u64 conns
func EncodeV1(g *graph.Graph) []byte {
	nodes := g.Nodes()
	idx := make(map[graph.Node]uint32, len(nodes))
	buf := make([]byte, 0, 64+len(nodes)*24)
	buf = append(buf, byte(g.Facet))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Start.Unix()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.End.Unix()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nodes)))
	for i, n := range nodes {
		idx[n] = uint32(i)
		kind, text := byte(0), n.Addr.Zone()
		switch {
		case n.Name != "":
			kind, text = 2, n.Name
		case n.Port != 0:
			kind = 1
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
