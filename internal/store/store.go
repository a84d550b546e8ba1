// Package store is the window-graph codec: the one byte layout every
// on-disk form of a communication-graph window uses. The durable,
// epoch-indexed history in internal/histstore frames one EncodeGraph body
// per record; nothing else in the repository serializes a graph.
//
// EncodeGraph writes the compact v2 layout: varints throughout, addresses
// at their own width, per-row destination deltas — about 5.5× smaller than
// the fixed-width v1 layout earlier versions wrote. It walks the graph's
// CSR arrays in order, so the bytes are canonical, and DecodeGraph adopts
// the same layout without sorting or building a map graph. v2 decoding is
// strict: every accepted v2 body re-encodes to exactly itself.
//
// DecodeGraph still reads v1, since data directories written by older
// versions must open: the first byte tells the two apart, per record, so
// one segment may hold both. It accepts the orders older v1 encoders
// wrote — map-form edges in random order, and zoned IPv6 nodes written
// without their zone, which decode merged — and re-encoding a v1 body as
// v2 reaches a fixed point in one step. An edge is its counters; the
// sequence of per-window graphs is the retained time series, at window
// granularity.
package store

import (
	"encoding/binary"
	"errors"
	"math"
	"net/netip"
	"slices"
	"time"

	"cloudgraph/internal/graph"
)

// ErrBadFormat is returned for corrupt or truncated bytes.
var ErrBadFormat = errors.New("store: bad file format")

// version2 leads every v2 body. A v1 body starts with its facet (0–3), so
// no v1 body starts with this byte.
const version2 = 0x82

// Node kinds on disk, and the other bits of a v2 node's flags byte.
const (
	kindIP     = 0
	kindIPPort = 1
	kindName   = 2

	flagKind  = 0x03 // mask of the kind
	flagV4    = 0x04 // a 4-byte IPv4 address follows
	flagZoned = 0x08 // a non-empty IPv6 zone follows the address (and port)
)

// v2 sizes. The encoder grows its buffer once, to the header bound plus
// a bound per node (flags, IPv6 address, port, text length, row length)
// and per edge (destination delta, three counters). The decoder rejects a
// count whose smallest entries — a one-letter name and its row length, an
// edge of four one-byte varints — the remaining bytes cannot hold, before
// anything is allocated for them.
const (
	maxHeaderBytes = 2 + 4*binary.MaxVarintLen64
	maxNodeBytes   = 1 + 16 + 3 + binary.MaxVarintLen64 + binary.MaxVarintLen32
	maxEdgeBytes   = binary.MaxVarintLen32 + 3*binary.MaxVarintLen64
	minNodeBytesV2 = 4
	minEdgeBytesV2 = 4
)

// v1 sizes: the smallest v1 node and the fixed v1 edge, which bound v1
// counts the same way.
const (
	minNodeBytes = 1 + 16 + 1 + 2 + 2
	edgeBytes    = 4 + 4 + 8 + 8 + 8
)

// EncodeGraph serializes one window graph. Layout (v2; varints are
// encoding/binary's, minimal):
//
//	u8      version (0x82)
//	u8      facet
//	varint  start unix, varint end − start
//	uvarint node count, then per node in Node.Less order:
//	        u8 flags: bits 0–1 kind (0 ip, 1 ipport, 2 name), 0x04 IPv4,
//	            0x08 zoned
//	        address: 4 bytes for IPv4, 16 for IPv6, none for a name
//	        uvarint port, for kind 1 only (1–65535)
//	        uvarint length + text: the name for kind 2, the zone when zoned
//	uvarint directed edge count, then per node (CSR row) in order:
//	        uvarint row length, then per out-edge in ascending destination
//	        order: uvarint dst − prev − 1 (prev = −1 at the row start),
//	        uvarint bytes, uvarint packets, uvarint conns
func EncodeGraph(g *graph.Graph) []byte { return AppendGraph(nil, g) }

// AppendGraph appends EncodeGraph(g) to dst, growing it at most once, to
// an upper bound of the encoding. The node table is the graph's sorted CSR
// node table and the edges are its CSR rows walked in order, so the bytes
// come straight from the arrays.
func AppendGraph(dst []byte, g *graph.Graph) []byte {
	nodes, rowOff, cols, edges := g.CSR()
	size := maxHeaderBytes + len(nodes)*maxNodeBytes + len(edges)*maxEdgeBytes
	for _, n := range nodes {
		size += len(n.Name) + len(n.Addr.Zone())
	}
	buf := slices.Grow(dst, size)
	start := g.Start.Unix()
	buf = append(buf, version2, byte(g.Facet))
	buf = binary.AppendVarint(buf, start)
	buf = binary.AppendVarint(buf, g.End.Unix()-start)
	buf = binary.AppendUvarint(buf, uint64(len(nodes)))
	for _, n := range nodes {
		buf = appendNode(buf, n)
	}
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	// The edge table writes in place: the buffer already holds its bound.
	out, p := buf[:cap(buf)], len(buf)
	for src := range nodes {
		lo, hi := rowOff[src], rowOff[src+1]
		p = putUvarint(out, p, uint64(hi-lo))
		next := int32(0)
		for k := lo; k < hi; k++ {
			c := &edges[k].Counters
			p = putUvarint(out, p, uint64(cols[k]-next))
			p = putUvarint(out, p, c.Bytes)
			p = putUvarint(out, p, c.Packets)
			p = putUvarint(out, p, c.Conns)
			next = cols[k] + 1
		}
	}
	return out[:p]
}

// putUvarint writes v as a uvarint at b[p:] and returns the offset after it.
func putUvarint(b []byte, p int, v uint64) int {
	for v >= 0x80 {
		b[p] = byte(v) | 0x80
		v >>= 7
		p++
	}
	b[p] = byte(v)
	return p + 1
}

// appendNode appends one v2 node table entry.
func appendNode(buf []byte, n graph.Node) []byte {
	if n.Name != "" {
		return appendText(append(buf, kindName), n.Name)
	}
	flags, zone := byte(kindIP), n.Addr.Zone()
	if n.Port != 0 {
		flags = kindIPPort
	}
	if zone != "" {
		flags |= flagZoned
	}
	if n.Addr.Is4() {
		a4 := n.Addr.As4()
		buf = append(append(buf, flags|flagV4), a4[:]...)
	} else {
		a16 := n.Addr.As16()
		buf = append(append(buf, flags), a16[:]...)
	}
	if n.Port != 0 {
		buf = binary.AppendUvarint(buf, uint64(n.Port))
	}
	if zone != "" {
		buf = appendText(buf, zone)
	}
	return buf
}

// appendText appends a uvarint length and s.
func appendText(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// DecodeGraph is the inverse of EncodeGraph, dispatching on the first
// byte: a v2 body, or a v1 body from an older version. It rejects with
// ErrBadFormat truncated or trailing bytes, counts larger than the input
// can hold, unknown node kinds or flags, fields an address kind does not
// carry, and edge endpoints outside the node table. A v2 body must also be
// canonical — minimal varints, nodes strictly ascending, ports 1–65535 —
// so it lays out as CSR directly. A v1 body may list nodes and edges in any
// order (but not repeat an edge) and goes through graph.FromIndex's sort
// and merge.
func DecodeGraph(b []byte) (*graph.Graph, error) {
	if len(b) > 0 && b[0] == version2 {
		return decodeV2(b[1:])
	}
	return decodeV1(b)
}

// decodeV2 decodes a v2 body after its version byte straight into the
// graph's CSR arrays: the node table, row offsets, columns and counter
// slab are each allocated once, at the sizes the header declares, after
// the declared counts are checked against the remaining bytes.
func decodeV2(b []byte) (*graph.Graph, error) {
	r := &byteReader{b: b}
	facet := graph.Facet(r.u8())
	start := r.varint()
	end := start + r.varint()
	nNodes := r.count(minNodeBytesV2)
	if r.err != nil {
		return nil, ErrBadFormat
	}
	nodes := make([]graph.Node, nNodes)
	for i := range nodes {
		n, ok := r.nodeV2()
		if !ok || (i > 0 && !nodes[i-1].Less(n)) {
			return nil, ErrBadFormat
		}
		nodes[i] = n
	}
	nEdges := r.count(minEdgeBytesV2)
	if r.err != nil || r.rest()-nEdges*minEdgeBytesV2 < nNodes {
		return nil, ErrBadFormat
	}
	rowOff := make([]int32, nNodes+1)
	cols := make([]int32, nEdges)
	edges := make([]graph.Edge, nEdges)
	// The edge table, the bulk of the body, reads through a local offset
	// (past len(b) once a varint fails) rather than the cursor's methods.
	p, e := r.p, 0
	for src := range nodes {
		var rowLen uint64
		if rowLen, p = uvarintAt(b, p); rowLen > uint64(nEdges-e) {
			return nil, ErrBadFormat
		}
		next := uint64(0) // the smallest destination the row may still hold
		for range rowLen {
			var delta uint64
			c := &edges[e].Counters
			delta, p = uvarintAt(b, p)
			c.Bytes, p = uvarintAt(b, p)
			c.Packets, p = uvarintAt(b, p)
			c.Conns, p = uvarintAt(b, p)
			if delta >= uint64(nNodes)-next {
				return nil, ErrBadFormat
			}
			next += delta
			cols[e] = int32(next)
			next++
			e++
		}
		rowOff[src+1] = int32(e)
	}
	if p != len(b) || e != nEdges {
		return nil, ErrBadFormat
	}
	g := graph.FromCSR(facet, nodes, rowOff, cols, edges)
	g.Start, g.End = time.Unix(start, 0).UTC(), time.Unix(end, 0).UTC()
	return g, nil
}

// decodeV1 decodes a v1 body: the fixed-width layout older versions wrote
// (little endian):
//
//	u8  facet
//	i64 start unix, i64 end unix
//	u32 node count, then per node: u8 kind (0 ip, 1 ipport, 2 name),
//	    [16]addr, u8 wasV4, u16 port, u16 textLen, text bytes — the
//	    node name for kind 2, the IPv6 zone (usually empty) otherwise
//	u32 directed edge count, then per edge: u32 src, u32 dst, u64 bytes,
//	    u64 packets, u64 conns
func decodeV1(b []byte) (*graph.Graph, error) {
	r := &byteReader{b: b}
	facet := graph.Facet(r.u8())
	start := time.Unix(int64(r.u64()), 0).UTC()
	end := time.Unix(int64(r.u64()), 0).UTC()
	nNodes := uint64(r.u32())
	if r.err != nil || nNodes*minNodeBytes > uint64(r.rest()) {
		return nil, ErrBadFormat
	}
	nodes := make([]graph.Node, 0, nNodes)
	for i := uint64(0); i < nNodes; i++ {
		n, ok := r.nodeV1()
		if !ok {
			return nil, ErrBadFormat
		}
		nodes = append(nodes, n)
	}
	nEdges := uint64(r.u32())
	if r.err != nil || nEdges*edgeBytes != uint64(r.rest()) {
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

// byteReader is a tiny cursor with sticky errors. It advances an offset
// rather than reslicing b, so a read stores no pointer.
type byteReader struct {
	b   []byte
	p   int // offset of the next unread byte
	err error
}

// nodeV2 reads one v2 node table entry, reporting false for truncated or
// malformed entries and for any that EncodeGraph would not write.
func (r *byteReader) nodeV2() (graph.Node, bool) {
	flags := r.u8()
	kind := flags & flagKind
	if kind == kindName {
		name := r.text()
		return graph.Node{Name: name}, flags == kindName && name != "" && r.err == nil
	}
	var addr netip.Addr
	switch flags &^ flagKind {
	case flagV4:
		addr = netip.AddrFrom4([4]byte(r.take(4)))
	case 0, flagZoned:
		addr = netip.AddrFrom16([16]byte(r.take(16)))
	default:
		return graph.Node{}, false
	}
	var port uint64
	if kind == kindIPPort {
		if port = r.uvarint(); port == 0 || port > math.MaxUint16 {
			return graph.Node{}, false
		}
	}
	if flags&flagZoned != 0 {
		zone := r.text()
		if zone == "" {
			return graph.Node{}, false
		}
		addr = addr.WithZone(zone)
	}
	switch {
	case r.err != nil:
	case kind == kindIP:
		return graph.IPNode(addr), true
	case kind == kindIPPort:
		return graph.IPPortNode(addr, uint16(port)), true
	}
	return graph.Node{}, false
}

// nodeV1 reads one v1 node table entry, reporting false for truncated or
// malformed entries. A name node's address and port fields are ignored.
func (r *byteReader) nodeV1() (graph.Node, bool) {
	kind := r.u8()
	a16 := [16]byte(r.take(16))
	wasV4 := r.u8()
	port := r.u16()
	text := string(r.take(int(r.u16())))
	if r.err != nil || wasV4 > 1 {
		return graph.Node{}, false
	}
	if kind == kindName {
		return graph.Node{Name: text}, text != ""
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

// fail marks the input bad and moves the cursor to the end, so every
// later read fails too.
func (r *byteReader) fail() {
	r.err = ErrBadFormat
	r.p = len(r.b)
}

// rest is the number of bytes left to read.
func (r *byteReader) rest() int { return len(r.b) - r.p }

func (r *byteReader) take(n int) []byte {
	if r.err != nil || r.rest() < n {
		r.fail()
		return make([]byte, n)
	}
	r.p += n
	return r.b[r.p-n : r.p]
}

func (r *byteReader) u8() byte    { return r.take(1)[0] }
func (r *byteReader) u16() uint16 { return binary.LittleEndian.Uint16(r.take(2)) }
func (r *byteReader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *byteReader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// uvarint reads a minimally encoded unsigned varint.
func (r *byteReader) uvarint() uint64 {
	v, p := uvarintAt(r.b, r.p)
	if p > len(r.b) {
		r.fail()
		return 0
	}
	r.p = p
	return v
}

// uvarintAt decodes the uvarint at b[p:] and returns it with the offset
// just past it, or an offset past len(b) when the bytes there are
// truncated, overflow or are not the minimal encoding: a multi-byte
// encoding whose last byte is zero is rejected, so each value has one
// encoding. An offset past len(b) stays past it.
func uvarintAt(b []byte, p int) (uint64, int) {
	var x uint64
	for s := uint(0); p < len(b); s += 7 {
		c := b[p]
		p++
		if c < 0x80 {
			if s == 0 {
				return uint64(c), p
			}
			if c == 0 || s > 63 || (s == 63 && c > 1) {
				break // not minimal, or past 64 bits
			}
			return x | uint64(c)<<s, p
		}
		x |= uint64(c&0x7f) << s
	}
	return 0, len(b) + 1
}

// varint reads a minimally encoded zig-zag signed varint.
func (r *byteReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a uvarint element count, failing for one whose elements, at
// least size bytes each, the remaining bytes cannot hold.
func (r *byteReader) count(size int) int {
	n := r.uvarint()
	if n > uint64(r.rest()/size) {
		r.fail()
		return 0
	}
	return int(n)
}

// text reads a uvarint length and that many bytes.
func (r *byteReader) text() string {
	n := r.uvarint()
	if n > uint64(r.rest()) {
		r.fail()
		return ""
	}
	r.p += int(n)
	return string(r.b[r.p-int(n) : r.p])
}
