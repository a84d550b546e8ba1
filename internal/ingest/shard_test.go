package ingest

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
)

// TestShardOfGolden pins shard numbers at widths 2, 3 and 256: the loader
// deals records to writers by ShardOf, so a hash that moves reshuffles
// every benchmark's traffic. The table covers each address form the hash
// reads (IPv4, 4-in-6, IPv6, zoned IPv6, mixed families); the digest folds
// in 4096 pseudo-random IPv4 and IPv6 records. The values were taken from
// the As16-based hash.
func TestShardOfGolden(t *testing.T) {
	widths := [3]int{2, 3, 256}
	for _, c := range []struct {
		a     string
		ap    uint16
		b     string
		bp    uint16
		shard [3]int
	}{
		{"10.0.0.1", 443, "10.0.0.2", 51234, [3]int{0, 1, 108}},
		{"10.0.0.10", 8080, "192.168.1.10", 3306, [3]int{1, 2, 223}},
		{"0.0.0.1", 1, "255.255.255.255", 65535, [3]int{0, 0, 72}},
		{"::ffff:10.0.0.1", 443, "10.0.0.1", 443, [3]int{0, 0, 80}},
		{"2001:db8::1", 443, "2001:db8::2", 60000, [3]int{1, 1, 141}},
		{"fe80::1%eth0", 22, "fe80::2%eth1", 40000, [3]int{1, 2, 174}},
		{"10.1.2.3", 53, "2001:db8:85a3::8a2e:370:7334", 53, [3]int{1, 1, 162}},
	} {
		r := flowlog.Record{
			LocalIP: netip.MustParseAddr(c.a), LocalPort: c.ap,
			RemoteIP: netip.MustParseAddr(c.b), RemotePort: c.bp,
		}
		for i, n := range widths {
			if got := ShardOf(r.Key(), n); got != c.shard[i] {
				t.Errorf("ShardOf(%s:%d, %s:%d, %d) = %d, want %d", c.a, c.ap, c.b, c.bp, n, got, c.shard[i])
			}
			if got := ShardOfRecord(&r, n); got != c.shard[i] {
				t.Errorf("ShardOfRecord(%s:%d, %s:%d, %d) = %d, want %d", c.a, c.ap, c.b, c.bp, n, got, c.shard[i])
			}
		}
	}

	rng := rand.New(rand.NewPCG(1, 2))
	var digest [3]uint64
	for i := range 4096 {
		var r flowlog.Record
		if i%4 == 3 {
			var a, b [16]byte
			for k := range a {
				a[k], b[k] = byte(rng.Uint32()), byte(rng.Uint32())
			}
			r.LocalIP, r.RemoteIP = netip.AddrFrom16(a), netip.AddrFrom16(b)
		} else {
			var a, b [4]byte
			for k := range a {
				a[k], b[k] = byte(rng.Uint32()), byte(rng.Uint32())
			}
			r.LocalIP, r.RemoteIP = netip.AddrFrom4(a), netip.AddrFrom4(b)
		}
		r.LocalPort, r.RemotePort = uint16(rng.Uint32()), uint16(rng.Uint32())
		for j, n := range widths {
			digest[j] = digest[j]*31 + uint64(ShardOfRecord(&r, n))
		}
	}
	if want := [3]uint64{14726403432874570128, 2888500857206358122, 2659153718670321217}; digest != want {
		t.Errorf("shard digest over 4096 random records = %v, want %v", digest, want)
	}
}

// BenchmarkShardOfRecord is the engine's scatter pass: one ShardOfRecord
// per record of a 4096-record microservicebench batch at two shards.
func BenchmarkShardOfRecord(b *testing.B) {
	spec, err := cluster.Preset("microservicebench", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cluster.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := c.CollectHour(time.Unix(1700000000, 0).UTC())
	if err != nil {
		b.Fatal(err)
	}
	recs = recs[:min(len(recs), 4096)]
	var load [2]int
	b.ResetTimer()
	for range b.N {
		for i := range recs {
			load[ShardOfRecord(&recs[i], 2)]++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/rec")
	shardLoad = load
}

// shardLoad keeps BenchmarkShardOfRecord's result live.
var shardLoad [2]int
