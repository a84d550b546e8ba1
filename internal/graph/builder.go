package graph

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"sort"
	"time"

	"cloudgraph/internal/flowlog"
)

// BuilderOptions configures a Builder.
type BuilderOptions struct {
	// Facet selects node granularity. Default FacetIP.
	Facet Facet
	// Interval is the telemetry aggregation interval used to bucket
	// deduplication state and time series. Default one minute.
	Interval time.Duration
	// KeepSeries records a per-interval Sample on every directed edge.
	KeepSeries bool
	// Label maps addresses to service names; required for FacetService.
	Label Labeler
}

// pairObs merges the (up to two) reports of one flow during one interval:
// an intra-subscription flow is logged by both endpoints' NICs with the
// directional counters swapped, so we take the max of the two views per
// direction (they should agree; max also tolerates a lost report).
type pairObs struct {
	fwdPkts, fwdBytes uint64 // key.a -> key.z
	revPkts, revBytes uint64 // key.z -> key.a
}

// endpoint is one side of a flow in pointer-free form: the address's
// 16-byte big-endian value plus what netip.Addr keeps beside it. fam tells
// an IPv4 address from its 4-in-6 twin (they share hi/lo) and carries the
// zone of a scoped IPv6 address as an index into the builder's zone table,
// so two endpoints are equal exactly when their netip.AddrPorts are.
type endpoint struct {
	hi, lo uint64
	fam    uint32 // famV4, famV6, or famZone+i for the builder's zone i
	port   uint16
}

const (
	famV4 = iota
	famV6
	famZone
)

// flowKey is flowlog.FlowKey in endpoint form: a is the endpoint that
// sorts first under netip.AddrPort.Compare.
type flowKey struct{ a, z endpoint }

// Builder constructs a Graph from a stream of connection summaries,
// deduplicating double-reported intra-subscription flows per interval. This
// is "naïvely a group-by-aggregation query" (§3.2) with the memory bounded
// by the flows of the most recent interval rather than the whole window.
//
// The open window lives in index space (DESIGN.md, "graph memory layout"):
// the interval's flows in a pointer-free table keyed by endpoint pair,
// endpoints interned to dense node ids under the facet, directed edges in
// a slab indexed by (src id, dst id). Finish ranks the ids by Node.Less and
// lays the slab out as CSR directly; no Node-keyed map is ever built.
//
// Records are expected in roughly time order; a record more than one full
// interval older than the newest seen so far may be double-counted.
type Builder struct {
	opts BuilderOptions
	// seed keys the table hashes, drawn per builder so crafted addresses
	// cannot be aimed at one probe sequence. Nothing observable depends on
	// it: every table iterates in insertion order.
	seed [3]uint64

	// The open interval: flows first seen in insertion order, obs parallel.
	flows    denseIndex[flowKey]
	obs      []pairObs
	curStart time.Time
	// [curLo, curHi) is the open interval in Unix nanoseconds, empty when
	// curStart is unset or not representable.
	curLo, curHi int64

	// The open window. eps interns endpoints (port zeroed where the facet
	// ignores it); epNode maps an endpoint's id to its node id, which
	// differ only under FacetService, where byName folds the addresses of
	// one service together. edgeIdx keys the edge slab by src<<32|dst.
	eps     denseIndex[endpoint]
	epNode  []uint32
	nodes   []Node
	byName  map[string]uint32
	zones   []string
	zoneFam map[string]uint32
	edgeIdx denseIndex[uint64]
	edges   []Edge

	records            int
	minStart, maxStart time.Time // oldest and newest interval start seen
}

// NewBuilder returns a Builder with the given options.
func NewBuilder(opts BuilderOptions) *Builder {
	if opts.Interval <= 0 {
		opts.Interval = time.Minute
	}
	return &Builder{opts: opts, seed: [3]uint64{rand.Uint64(), rand.Uint64(), rand.Uint64()}}
}

// Records returns how many records have been added since the last Finish.
func (b *Builder) Records() int { return b.records }

// Add ingests one connection summary, ignoring it unless Valid.
func (b *Builder) Add(rec flowlog.Record) {
	if rec.Valid() {
		b.AddValid(&rec)
	}
}

// AddValid is Add for a record the caller has already checked Valid, by
// pointer: the per-record entry point of the windower, which validates once
// for both layers. The record is only read.
//
//vet:borrowed rec
func (b *Builder) AddValid(rec *flowlog.Record) {
	if ns, ok := flowlog.UnixNanos(rec.Time); !ok || ns < b.curLo || ns >= b.curHi {
		b.enterInterval(rec.Time)
	}
	b.records++

	// Orient the record's counters along the canonical key direction.
	k := flowKey{a: b.endpoint(rec.LocalIP, rec.LocalPort), z: b.endpoint(rec.RemoteIP, rec.RemotePort)}
	fwdPkts, fwdBytes, revPkts, revBytes := rec.PacketsSent, rec.BytesSent, rec.PacketsRcvd, rec.BytesRcvd
	if b.less(k.z, k.a) {
		k.a, k.z = k.z, k.a
		fwdPkts, fwdBytes, revPkts, revBytes = revPkts, revBytes, fwdPkts, fwdBytes
	}
	i, added := b.flows.findOrAdd(mix(b.hashEndpoint(k.a)^b.seed[2], b.hashEndpoint(k.z)|1), k)
	if added {
		b.obs = append(b.obs, pairObs{})
	}
	o := &b.obs[i]
	o.fwdPkts = max(o.fwdPkts, fwdPkts)
	o.fwdBytes = max(o.fwdBytes, fwdBytes)
	o.revPkts = max(o.revPkts, revPkts)
	o.revBytes = max(o.revBytes, revBytes)
}

// enterInterval handles a record outside the cached open interval: the
// first record, one that opens a newer interval (the open one flushes), or
// a late one, which folds into the open interval rather than drop.
func (b *Builder) enterInterval(t time.Time) {
	start := t.Truncate(b.opts.Interval)
	if opens := start.After(b.curStart); opens || b.curStart.IsZero() {
		if opens {
			b.flush()
		}
		b.curStart = start
		b.curLo, b.curHi = flowlog.NanoSpan(start, b.opts.Interval)
	}
	if b.records == 0 || start.Before(b.minStart) {
		b.minStart = start
	}
	if b.records == 0 || start.After(b.maxStart) {
		b.maxStart = start
	}
}

// endpoint packs one side of a record.
func (b *Builder) endpoint(ip netip.Addr, port uint16) endpoint {
	a := ip.As16()
	e := endpoint{hi: binary.BigEndian.Uint64(a[:8]), lo: binary.BigEndian.Uint64(a[8:]), port: port}
	if !ip.Is4() {
		e.fam = famV6
		if z := ip.Zone(); z != "" {
			e.fam = b.zoneOf(z)
		}
	}
	return e
}

// zoneOf interns an IPv6 zone name. Scoped addresses reach flow logs only
// through text inputs, so the table is usually nil.
func (b *Builder) zoneOf(z string) uint32 {
	fam, ok := b.zoneFam[z]
	if !ok {
		if b.zoneFam == nil {
			b.zoneFam = make(map[string]uint32)
		}
		fam = famZone + uint32(len(b.zones))
		b.zones = append(b.zones, z)
		b.zoneFam[z] = fam
	}
	return fam
}

// addr is the inverse of endpoint for the address part.
func (b *Builder) addr(e endpoint) netip.Addr {
	var a [16]byte
	binary.BigEndian.PutUint64(a[:8], e.hi)
	binary.BigEndian.PutUint64(a[8:], e.lo)
	if e.fam == famV4 {
		return netip.AddrFrom16(a).Unmap()
	}
	return netip.AddrFrom16(a).WithZone(b.zone(e.fam))
}

// less orders endpoints as netip.AddrPort.Compare does — IPv4 before IPv6,
// then address, zone and port — so key.a is flowlog.FlowKey's A and the
// flow's connection is attributed to the same direction.
func (b *Builder) less(x, y endpoint) bool {
	if x4, y4 := x.fam == famV4, y.fam == famV4; x4 != y4 {
		return x4
	}
	if x.hi != y.hi {
		return x.hi < y.hi
	}
	if x.lo != y.lo {
		return x.lo < y.lo
	}
	if x.fam != y.fam {
		return b.zone(x.fam) < b.zone(y.fam)
	}
	return x.port < y.port
}

// zone returns the zone name fam stands for, "" for an unscoped address.
func (b *Builder) zone(fam uint32) string {
	if fam < famZone {
		return ""
	}
	return b.zones[fam-famZone]
}

// mix folds two words through a 128-bit product; every input bit reaches
// the high bits denseIndex reads.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func (b *Builder) hashEndpoint(e endpoint) uint64 {
	return mix(e.hi^b.seed[0], e.lo^b.seed[1]) ^ mix(uint64(e.fam)<<16^uint64(e.port)^b.seed[1], b.seed[0]|1)
}

// nodeIDs maps both endpoints of a flow to node ids under the facet.
// FacetEndpoint needs to see the pair together: it keys the service side
// (lower port) by {IP, port} and the client side by IP.
func (b *Builder) nodeIDs(k flowKey) (a, z uint32) {
	switch b.opts.Facet {
	case FacetIPPort:
	case FacetEndpoint:
		if k.a.port <= k.z.port {
			k.z.port = 0
		} else {
			k.a.port = 0
		}
	default:
		k.a.port, k.z.port = 0, 0
	}
	return b.nodeID(k.a), b.nodeID(k.z)
}

// nodeID interns one endpoint, building its Node the first time the window
// sees it.
func (b *Builder) nodeID(e endpoint) uint32 {
	i, added := b.eps.findOrAdd(b.hashEndpoint(e), e)
	if !added {
		return b.epNode[i]
	}
	id := uint32(len(b.nodes))
	n := Node{Addr: b.addr(e), Port: e.port}
	if b.opts.Facet == FacetService {
		name := ""
		if b.opts.Label != nil {
			name = b.opts.Label(n.Addr)
		}
		if name == "" {
			name = n.Addr.String()
		}
		if known, ok := b.byName[name]; ok {
			b.epNode = append(b.epNode, known)
			return known
		}
		if b.byName == nil {
			b.byName = make(map[string]uint32)
		}
		b.byName[name] = id
		n = ServiceNode(name)
	}
	b.nodes = append(b.nodes, n)
	b.epNode = append(b.epNode, id)
	return id
}

// flush folds the open interval's deduplicated flows into the edge slab.
func (b *Builder) flush() {
	for i, k := range b.flows.keys {
		a, z := b.nodeIDs(k)
		if a == z {
			// Facet merged both endpoints (e.g. two ports of one IP in
			// a FacetService graph): keep as a self-loop-free no-op.
			continue
		}
		o := &b.obs[i]
		// One distinct flow, attributed to the canonical direction.
		b.addDirected(a, z, Counters{Bytes: o.fwdBytes, Packets: o.fwdPkts, Conns: 1})
		if o.revBytes != 0 || o.revPkts != 0 {
			b.addDirected(z, a, Counters{Bytes: o.revBytes, Packets: o.revPkts})
		}
	}
	b.flows.reset()
	b.obs = b.obs[:0]
}

// addDirected accumulates one flow's contribution onto the edge src->dst
// and, with KeepSeries, onto the edge's sample for the open interval.
func (b *Builder) addDirected(src, dst uint32, c Counters) {
	key := uint64(src)<<32 | uint64(dst)
	i, added := b.edgeIdx.findOrAdd(mix(key^b.seed[0], b.seed[1]|1), key)
	if added {
		b.edges = append(b.edges, Edge{})
	}
	e := &b.edges[i]
	e.Counters.Add(c)
	if !b.opts.KeepSeries {
		return
	}
	if n := len(e.Series); n > 0 && e.Series[n-1].Start.Equal(b.curStart) {
		e.Series[n-1].Counters.Add(c)
	} else {
		e.Series = append(e.Series, Sample{Start: b.curStart, Counters: c})
	}
}

// Finish flushes pending state and returns the completed graph, laid out
// as CSR, then resets the builder — tables emptied, capacity kept — so it
// can build the next graph.
func (b *Builder) Finish() *Graph {
	b.flush()
	g := newGraph(b.opts.Facet, b.seal())
	if b.records > 0 {
		g.Start = b.minStart
		g.End = b.maxStart.Add(b.opts.Interval)
	}
	b.reset()
	return g
}

// seal lays the open window out as CSR: rank the node ids that carry an
// edge by Node.Less, renumber the edge keys by rank, and sort the slab into
// (src, dst) order (sortEdges copies it, so the builder keeps its slab).
func (b *Builder) seal() *frozen {
	keys := b.edgeIdx.keys
	used := make([]bool, len(b.nodes))
	for _, k := range keys {
		used[k>>32], used[uint32(k)] = true, true
	}
	order := make([]uint32, 0, len(b.nodes))
	for id, u := range used {
		if u {
			order = append(order, uint32(id))
		}
	}
	sort.Slice(order, func(i, j int) bool { return b.nodes[order[i]].Less(b.nodes[order[j]]) })

	nodes := make([]Node, len(order))
	rank := make([]uint64, len(b.nodes))
	for r, id := range order {
		rank[id] = uint64(r)
		nodes[r] = b.nodes[id]
	}
	ranked := make([]uint64, len(keys))
	for e, k := range keys {
		ranked[e] = rank[k>>32]<<32 | rank[uint32(k)]
	}
	ranked, slab := sortEdges(len(nodes), ranked, b.edges)
	return csr(nodes, ranked, slab)
}

// reset empties every table for the next graph. The intern tables go with
// the window, so a long-lived builder holds one window's endpoints, not
// every endpoint it ever saw.
func (b *Builder) reset() {
	b.curStart, b.curLo, b.curHi = time.Time{}, 0, 0
	b.eps.reset()
	b.epNode = b.epNode[:0]
	clear(b.nodes) // drop service-name strings
	b.nodes = b.nodes[:0]
	clear(b.byName)
	b.zones = b.zones[:0]
	clear(b.zoneFam)
	b.edgeIdx.reset()
	clear(b.edges) // the sealed graph owns the series now
	b.edges = b.edges[:0]
	b.records = 0
}

// Build is a convenience that constructs a graph from a record slice.
func Build(recs []flowlog.Record, opts BuilderOptions) *Graph {
	b := NewBuilder(opts)
	for i := range recs {
		if recs[i].Valid() {
			b.AddValid(&recs[i])
		}
	}
	return b.Finish()
}
