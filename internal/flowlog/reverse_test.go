package flowlog_test

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph/graphtest"
)

// The tests that build a flow's second report with graphtest.Reverse rely
// on it being the remote side's view; these pin that, and that both
// reports of a flow share one key.

func TestReverseInvolution(t *testing.T) {
	f := func(r flowlog.Record) bool { return graphtest.Reverse(graphtest.Reverse(r)) == r }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseSwapsCounters(t *testing.T) {
	r := flowlog.Record{
		Time: time.Unix(1700000000, 0).UTC(), LocalIP: netip.MustParseAddr("10.0.1.4"), LocalPort: 443,
		RemoteIP: netip.MustParseAddr("10.0.2.9"), RemotePort: 49152,
		PacketsSent: 120, PacketsRcvd: 80, BytesSent: 90000, BytesRcvd: 6400,
	}
	rev := graphtest.Reverse(r)
	if rev.LocalIP != r.RemoteIP || rev.RemoteIP != r.LocalIP || rev.LocalPort != r.RemotePort || rev.RemotePort != r.LocalPort {
		t.Error("Reverse did not swap endpoints")
	}
	if rev.BytesSent != r.BytesRcvd || rev.BytesRcvd != r.BytesSent {
		t.Error("Reverse did not swap byte counters")
	}
	if rev.PacketsSent != r.PacketsRcvd || rev.PacketsRcvd != r.PacketsSent {
		t.Error("Reverse did not swap packet counters")
	}
}

func TestKeyDirectionless(t *testing.T) {
	f := func(r flowlog.Record) bool { return r.Key() == graphtest.Reverse(r).Key() }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
