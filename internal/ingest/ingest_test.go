package ingest

import (
	"net/netip"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
)

func TestShardOfStable(t *testing.T) {
	a, b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.9.9.9")
	k := flowlog.Record{LocalIP: a, LocalPort: 5, RemoteIP: b, RemotePort: 6}.Key()
	s := ShardOf(k, 7)
	for i := 0; i < 10; i++ {
		if ShardOf(k, 7) != s {
			t.Fatal("shardOf not deterministic")
		}
	}
	rev := flowlog.Record{LocalIP: b, LocalPort: 6, RemoteIP: a, RemotePort: 5}.Key()
	if ShardOf(rev, 7) != s {
		t.Error("reverse report shards differently")
	}
}

// TestShardOfBalanced pins the word-mixing hash's spread: over an hour of
// each benchmark preset, no shard carries more than 1.1x the mean record
// load at any width the engine is run at, and ShardOfRecord agrees with
// ShardOf on every record — the loader deals by one, the engine by the
// other.
func TestShardOfBalanced(t *testing.T) {
	for _, preset := range []string{"microservicebench", "k8spaas"} {
		spec, err := cluster.Preset(preset, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := c.CollectHour(time.Unix(1700000000, 0).UTC())
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 4, 8, 16} {
			load := make([]int, n)
			for i := range recs {
				s := ShardOfRecord(&recs[i], n)
				if k := ShardOf(recs[i].Key(), n); k != s {
					t.Fatalf("%s n=%d: ShardOfRecord = %d, ShardOf(Key()) = %d for %+v", preset, n, s, k, recs[i])
				}
				load[s]++
			}
			mean := float64(len(recs)) / float64(n)
			for s, l := range load {
				if float64(l) > 1.1*mean {
					t.Errorf("%s n=%d: shard %d holds %d of %d records, %.2fx the mean", preset, n, s, l, len(recs), float64(l)/mean)
				}
			}
		}
	}
}

func TestMeterAndCores(t *testing.T) {
	r := CostReport{Records: 600, WorkerBusy: 6 * time.Second}
	// 10ms busy per record; 60 records/min live => 0.6s busy per minute
	// => 0.01 cores.
	got := r.CoresForLive(60)
	if got < 0.0099 || got > 0.0101 {
		t.Errorf("CoresForLive = %v, want 0.01", got)
	}
	pct := r.SurchargePct(60, 100, 8)
	want := 100 * (0.01 / 8) / 100
	if pct < want*0.99 || pct > want*1.01 {
		t.Errorf("SurchargePct = %v, want %v", pct, want)
	}
}
