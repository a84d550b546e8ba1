package graph_test

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

// naiveBuilder is graph.Builder as it was before the open window moved to
// index space: a FlowKey-keyed map of heap pairObs per interval, a
// Node-pair-keyed interval map at every flush, and a graphtest model
// underneath. Kept as the reference the builder is tested against.
type naiveBuilder struct {
	opts graph.BuilderOptions
	m    *graphtest.Model

	cur      map[flowlog.FlowKey]*naiveObs
	curStart time.Time
	records  int
	minTime  time.Time
	maxTime  time.Time
}

type naiveObs struct {
	fwdPkts, fwdBytes uint64 // key.A -> key.B
	revPkts, revBytes uint64 // key.B -> key.A
}

func newNaiveBuilder(opts graph.BuilderOptions) *naiveBuilder {
	if opts.Interval <= 0 {
		opts.Interval = time.Minute
	}
	return &naiveBuilder{opts: opts, m: graphtest.NewModel(opts.Facet), cur: make(map[flowlog.FlowKey]*naiveObs)}
}

func (b *naiveBuilder) add(rec flowlog.Record) {
	if !rec.Valid() {
		return
	}
	start := rec.Time.Truncate(b.opts.Interval)
	if b.curStart.IsZero() {
		b.curStart = start
	} else if start.After(b.curStart) {
		b.flush()
		b.curStart = start
	}
	b.records++
	if b.minTime.IsZero() || rec.Time.Before(b.minTime) {
		b.minTime = rec.Time
	}
	if rec.Time.After(b.maxTime) {
		b.maxTime = rec.Time
	}

	key := rec.Key()
	obs := b.cur[key]
	if obs == nil {
		obs = &naiveObs{}
		b.cur[key] = obs
	}
	if netip.AddrPortFrom(rec.LocalIP, rec.LocalPort) == key.A {
		obs.fwdPkts = max(obs.fwdPkts, rec.PacketsSent)
		obs.fwdBytes = max(obs.fwdBytes, rec.BytesSent)
		obs.revPkts = max(obs.revPkts, rec.PacketsRcvd)
		obs.revBytes = max(obs.revBytes, rec.BytesRcvd)
	} else {
		obs.fwdPkts = max(obs.fwdPkts, rec.PacketsRcvd)
		obs.fwdBytes = max(obs.fwdBytes, rec.BytesRcvd)
		obs.revPkts = max(obs.revPkts, rec.PacketsSent)
		obs.revBytes = max(obs.revBytes, rec.BytesSent)
	}
}

func (b *naiveBuilder) node(ap netip.AddrPort) graph.Node {
	switch b.opts.Facet {
	case graph.FacetIPPort:
		return graph.IPPortNode(ap.Addr(), ap.Port())
	case graph.FacetService:
		if b.opts.Label != nil {
			if name := b.opts.Label(ap.Addr()); name != "" {
				return graph.ServiceNode(name)
			}
		}
		return graph.ServiceNode(ap.Addr().String())
	default:
		return graph.IPNode(ap.Addr())
	}
}

func (b *naiveBuilder) nodePair(a, z netip.AddrPort) (graph.Node, graph.Node) {
	if b.opts.Facet != graph.FacetEndpoint {
		return b.node(a), b.node(z)
	}
	if a.Port() <= z.Port() {
		return graph.IPPortNode(a.Addr(), a.Port()), graph.IPNode(z.Addr())
	}
	return graph.IPNode(a.Addr()), graph.IPPortNode(z.Addr(), z.Port())
}

func (b *naiveBuilder) flush() {
	type dirKey struct{ src, dst graph.Node }
	interval := make(map[dirKey]graph.Counters, len(b.cur))
	for key, obs := range b.cur {
		a, z := b.nodePair(key.A, key.B)
		if a == z {
			continue
		}
		fwd := interval[dirKey{a, z}]
		fwd.Bytes += obs.fwdBytes
		fwd.Packets += obs.fwdPkts
		fwd.Conns++
		interval[dirKey{a, z}] = fwd

		rev := interval[dirKey{z, a}]
		rev.Bytes += obs.revBytes
		rev.Packets += obs.revPkts
		interval[dirKey{z, a}] = rev
	}
	for k, c := range interval {
		if c == (graph.Counters{}) {
			continue
		}
		if b.opts.KeepSeries {
			b.m.Add(k.src, k.dst, c, graph.Sample{Start: b.curStart, Counters: c})
		} else {
			b.m.Add(k.src, k.dst, c)
		}
	}
	clear(b.cur)
}

func (b *naiveBuilder) finish() *graphtest.Model {
	b.flush()
	b.m.Start = b.minTime.Truncate(b.opts.Interval)
	if !b.maxTime.IsZero() {
		b.m.End = b.maxTime.Truncate(b.opts.Interval).Add(b.opts.Interval)
	}
	return b.m
}

var (
	naiveT0 = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)
	v4a     = netip.MustParseAddr("10.0.0.1")
	v4b     = netip.MustParseAddr("10.0.0.2")
	v4c     = netip.MustParseAddr("10.0.0.3")
	mapped  = netip.MustParseAddr("::ffff:10.0.0.1") // 4-in-6 twin of v4a: a distinct node
	v6a     = netip.MustParseAddr("2001:db8::1")
	v6b     = netip.MustParseAddr("2001:db8::2")
	zoned1  = netip.MustParseAddr("fe80::1%eth0")
	zoned2  = netip.MustParseAddr("fe80::1%eth1")
)

func flow(at time.Time, l netip.Addr, lp uint16, r netip.Addr, rp uint16, ps, pr, bs, br uint64) flowlog.Record {
	return flowlog.Record{Time: at, LocalIP: l, LocalPort: lp, RemoteIP: r, RemotePort: rp,
		PacketsSent: ps, PacketsRcvd: pr, BytesSent: bs, BytesRcvd: br}
}

// hostileRecords is the hand-built stream of shapes the generators never
// emit; see the inline notes.
func hostileRecords() []flowlog.Record {
	m := func(i int) time.Time { return naiveT0.Add(time.Duration(i) * time.Minute) }
	double := flow(m(0), v4a, 40000, v4b, 443, 10, 8, 1000, 800)
	lossy := double.Reverse()
	lossy.PacketsSent, lossy.BytesRcvd = 7, 900 // the two reports disagree: max per direction wins
	recs := []flowlog.Record{
		double, lossy, // double-reported
		flow(m(0), v4a, 40001, v4c, 443, 3, 0, 300, 0),  // single-reported, zero-byte reverse direction
		flow(m(0), v4c, 443, v4a, 40002, 0, 0, 0, 0),    // all-zero counters: a connection and nothing else
		flow(m(0), v4a, 40003, v4a, 8080, 5, 5, 50, 50), // both endpoints one IP: a == z under every IP facet
		flow(m(0), v4b, 9000, v4b, 9000, 1, 1, 10, 10),  // the same endpoint twice
		{}, // invalid: zero record
		{Time: m(0), LocalIP: v4a, LocalPort: 1, RemotePort: 2}, // invalid: no remote address
		flow(m(0), mapped, 40000, v4b, 443, 2, 2, 20, 20),       // 4-in-6 twin of the first flow's client
		flow(m(0), v4b, 443, mapped, 40000, 2, 2, 20, 20),       // ... and its second report
		flow(m(0), v6a, 50000, v6b, 443, 9, 9, 900, 900),        // IPv6
		flow(m(0), v6b, 443, v6a, 50000, 9, 9, 900, 900),        //
		flow(m(0), v6a, 50001, v4a, 53, 1, 1, 60, 120),          // mixed families: IPv4 sorts first
		flow(m(0), zoned1, 546, zoned2, 547, 1, 1, 70, 70),      // one address, two zones: distinct nodes
		flow(m(0), zoned2, 547, zoned1, 546, 1, 1, 70, 70),      //
		flow(m(0), zoned1, 546, netip.MustParseAddr("fe80::1"), 547, 1, 0, 70, 0),
		flow(m(1), v4a, 40000, v4b, 443, 4, 4, 400, 400),                     // same flow, next interval
		flow(m(1), v4b, 443, v4a, 40000, 4, 4, 400, 400),                     //
		flow(m(1), v4a, 40000, v4b, 443, 4, 4, 400, 400),                     // exact duplicate
		flow(m(0), v4a, 40004, v4b, 443, 6, 6, 600, 600),                     // late: folds into interval 1
		flow(m(0), v4b, 443, v4a, 40004, 6, 6, 600, 600),                     //
		flow(m(3), v4c, 40005, v4b, 443, 1, 1, 100, 100),                     // interval 2 is empty
		flow(m(1), v4a, 40000, v4b, 443, 2, 2, 200, 200),                     // late again, for a flow seen earlier
		flow(m(3).Add(30*time.Second), v4b, 443, v4c, 40005, 1, 1, 100, 100), // mid-interval timestamp
		flow(m(59), v4a, 40006, v4b, 443, ^uint64(0), 1, ^uint64(0), 1),      // saturated counters wrap like the sums always did
		flow(m(59), v4a, 40007, v4b, 443, 2, 1, 2, 1),                        //
		flow(time.Unix(1<<40, 0).UTC(), v4a, 40008, v4b, 443, 1, 1, 1, 1),    // year 36812: past the nanosecond fast path
		flow(m(5), v4a, 40009, v4b, 443, 1, 1, 1, 1),                         // late against it
	}
	return recs
}

func presetHour(t testing.TB, name string, scale float64) []flowlog.Record {
	t.Helper()
	spec, err := cluster.Preset(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.CollectHour(naiveT0)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestBuilderMatchesNaive drives the builder and its retired body over the
// same records — preset hours and the hostile stream — under every facet,
// with and without series.
func TestBuilderMatchesNaive(t *testing.T) {
	scale := 0.02
	if testing.Short() {
		scale = 0.005
	}
	usvc := presetHour(t, "microservicebench", scale)
	inputs := []struct {
		name string
		recs []flowlog.Record
	}{
		{"usvc", usvc},
		{"k8spaas", presetHour(t, "k8spaas", scale)},
		{"hostile", hostileRecords()},
		{"empty", nil},
	}
	// Label names the low half of usvc's addresses by /28, so several IPs
	// fold into one service node and some flows have a == z.
	label := func(a netip.Addr) string {
		if b := a.As16(); a.Is4() && b[15] < 128 {
			return fmt.Sprintf("svc-%d", b[15]>>4)
		}
		return ""
	}
	for _, in := range inputs {
		for _, facet := range []graph.Facet{graph.FacetIP, graph.FacetIPPort, graph.FacetService, graph.FacetEndpoint} {
			for _, series := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/series=%v", in.name, facet, series), func(t *testing.T) {
					opts := graph.BuilderOptions{Facet: facet, KeepSeries: series, Label: label}
					b, nb := graph.NewBuilder(opts), newNaiveBuilder(opts)
					for _, r := range in.recs {
						b.Add(r)
						nb.add(r)
					}
					if b.Records() != nb.records {
						t.Fatalf("Records = %d, want %d", b.Records(), nb.records)
					}
					if err := nb.finish().Check(b.Finish()); err != nil {
						t.Fatal(err)
					}

					// A finished builder is empty: the same records build
					// the same graph again.
					for _, r := range in.recs {
						b.Add(r)
					}
					nb = newNaiveBuilder(opts)
					for _, r := range in.recs {
						nb.add(r)
					}
					if err := nb.finish().Check(b.Finish()); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
