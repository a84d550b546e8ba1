package nicsim

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph/graphtest"
)

var (
	vmA = netip.MustParseAddr("10.0.0.1")
	vmB = netip.MustParseAddr("10.0.0.2")
	ext = netip.MustParseAddr("203.0.113.7")
	t0  = time.Unix(1700000000, 0).UTC()
)

func TestVNICObserveDrain(t *testing.T) {
	v := NewVNIC(vmA, 4*time.Minute)
	remote := netip.AddrPortFrom(ext, 443)
	v.Observe(50000, remote, 10, 8, 1000, 800, t0)
	v.Observe(50000, remote, 5, 4, 500, 400, t0.Add(30*time.Second))

	recs := v.Drain(t0)
	if len(recs) != 1 {
		t.Fatalf("Drain returned %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.LocalIP != vmA || r.LocalPort != 50000 || r.RemoteIP != ext || r.RemotePort != 443 {
		t.Errorf("endpoints wrong: %+v", r)
	}
	if r.PacketsSent != 15 || r.PacketsRcvd != 12 || r.BytesSent != 1500 || r.BytesRcvd != 1200 {
		t.Errorf("counters not accumulated: %+v", r)
	}
	if r.Time != t0 {
		t.Errorf("record time = %v, want interval start %v", r.Time, t0)
	}
}

func TestVNICDrainResetsCounters(t *testing.T) {
	v := NewVNIC(vmA, 4*time.Minute)
	remote := netip.AddrPortFrom(ext, 443)
	v.Observe(50000, remote, 10, 0, 1000, 0, t0)
	v.Drain(t0)
	// No traffic in second interval: the still-resident flow must not log.
	if recs := v.Drain(t0.Add(time.Minute)); len(recs) != 0 {
		t.Errorf("idle flow logged %d records, want 0", len(recs))
	}
}

func TestVNICIdleEviction(t *testing.T) {
	v := NewVNIC(vmA, 2*time.Minute)
	remote := netip.AddrPortFrom(ext, 443)
	v.Observe(50000, remote, 1, 1, 100, 100, t0)
	v.Drain(t0) // lastSeen t0, not yet idle
	if v.ActiveFlows() != 1 {
		t.Fatalf("flow evicted too early")
	}
	v.Drain(t0.Add(2 * time.Minute)) // idle >= timeout: evict
	if v.ActiveFlows() != 0 {
		t.Errorf("idle flow not evicted: %d active", v.ActiveFlows())
	}
}

func TestVNICPeakFlowsAndMemory(t *testing.T) {
	v := NewVNIC(vmA, time.Minute)
	for i := 0; i < 10; i++ {
		v.Observe(uint16(40000+i), netip.AddrPortFrom(ext, 443), 1, 0, 100, 0, t0)
	}
	if got, want := v.MemoryFootprint(), 10*EntrySize; got != want {
		t.Errorf("MemoryFootprint = %d, want %d", got, want)
	}
	v.Drain(t0.Add(time.Minute))
	if v.ActiveFlows() != 0 || v.MemoryFootprint() != 0 {
		t.Fatal("expected eviction")
	}
}

func TestVNICConcurrentObserve(t *testing.T) {
	v := NewVNIC(vmA, time.Minute)
	remote := netip.AddrPortFrom(ext, 80)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.Observe(1234, remote, 1, 1, 10, 10, t0)
			}
		}()
	}
	wg.Wait()
	recs := v.Drain(t0)
	if len(recs) != 1 || recs[0].PacketsSent != 8000 {
		t.Errorf("concurrent observes lost updates: %+v", recs)
	}
}

func TestHostPullForwardsAllVNICs(t *testing.T) {
	h := NewHost(4 * time.Minute)
	h.PlaceVM(vmA).Observe(1, netip.AddrPortFrom(ext, 443), 1, 1, 10, 10, t0)
	h.PlaceVM(vmB).Observe(2, netip.AddrPortFrom(ext, 443), 2, 2, 20, 20, t0)

	var got []flowlog.Record
	n, err := h.Pull(t0, CollectorFunc(func(recs []flowlog.Record) error {
		got = append(got, recs...)
		return nil
	}))
	if err != nil {
		t.Fatalf("Pull: %v", err)
	}
	if n != 2 || len(got) != 2 {
		t.Fatalf("Pull forwarded %d records (%d collected), want 2", n, len(got))
	}
	// Deterministic ordering: vmA sorts before vmB.
	if got[0].LocalIP != vmA || got[1].LocalIP != vmB {
		t.Errorf("records out of order: %v, %v", got[0].LocalIP, got[1].LocalIP)
	}
}

func TestHostPlaceVMIdempotent(t *testing.T) {
	h := NewHost(time.Minute)
	v1 := h.PlaceVM(vmA)
	v2 := h.PlaceVM(vmA)
	if v1 != v2 {
		t.Error("PlaceVM created a second VNIC for the same address")
	}
	if got := len(h.vnics); got != 1 {
		t.Errorf("host holds %d VNICs, want one", got)
	}
}

func TestFabricDoubleReporting(t *testing.T) {
	f := NewFabric(16, 4*time.Minute)
	f.AddVM(vmA)
	f.AddVM(vmB)
	src := netip.AddrPortFrom(vmA, 51000)
	dst := netip.AddrPortFrom(vmB, 8080)
	f.ObserveFlow(src, dst, 10, 6, 5000, 300, t0)

	var got []flowlog.Record
	n, err := f.PullAll(t0, CollectorFunc(func(recs []flowlog.Record) error {
		got = append(got, recs...)
		return nil
	}))
	if err != nil || n != 2 {
		t.Fatalf("PullAll = %d, %v; want 2 records (one per side)", n, err)
	}
	var fromA, fromB *flowlog.Record
	for i := range got {
		switch got[i].LocalIP {
		case vmA:
			fromA = &got[i]
		case vmB:
			fromB = &got[i]
		}
	}
	if fromA == nil || fromB == nil {
		t.Fatalf("missing a side: %+v", got)
	}
	if fromA.BytesSent != 5000 || fromA.BytesRcvd != 300 {
		t.Errorf("A-side counters wrong: %+v", fromA)
	}
	if fromB.BytesSent != 300 || fromB.BytesRcvd != 5000 {
		t.Errorf("B-side counters wrong: %+v", fromB)
	}
	if graphtest.Reverse(*fromA).Key() != fromB.Key() {
		t.Error("the two sides should describe the same flow key")
	}
}

func TestFabricExternalPeerSingleReport(t *testing.T) {
	f := NewFabric(16, 4*time.Minute)
	f.AddVM(vmA)
	// ext is not monitored: only vmA's VNIC logs.
	f.ObserveFlow(netip.AddrPortFrom(ext, 33000), netip.AddrPortFrom(vmA, 443), 4, 10, 400, 9000, t0)
	n, err := f.PullAll(t0, CollectorFunc(func([]flowlog.Record) error { return nil }))
	if err != nil || n != 1 {
		t.Errorf("PullAll = %d, %v; want exactly 1 record", n, err)
	}
	if f.byVM[ext] != nil {
		t.Error("external address placed as monitored")
	}
}

func TestFabricPacksHosts(t *testing.T) {
	f := NewFabric(4, time.Minute)
	for i := 0; i < 10; i++ {
		f.AddVM(netip.AddrFrom4([4]byte{10, 1, 0, byte(i)}))
	}
	if got := len(f.Hosts()); got != 3 {
		t.Errorf("10 VMs at 4/host -> %d hosts, want 3", got)
	}
}

func TestMemoryProportionalToConcurrentFlows(t *testing.T) {
	// §3.1: "The size of the logs and the memory footprint is proportional
	// to the number of concurrent flows."
	f := NewFabric(16, 10*time.Minute)
	f.AddVM(vmA)
	v := f.byVM[vmA]
	base := v.MemoryFootprint()
	for i := 0; i < 100; i++ {
		f.ObserveFlow(netip.AddrPortFrom(vmA, uint16(40000+i)), netip.AddrPortFrom(ext, 443), 1, 1, 10, 10, t0)
	}
	if got := v.MemoryFootprint() - base; got != 100*EntrySize {
		t.Errorf("memory delta = %d, want %d (proportional to flows)", got, 100*EntrySize)
	}
}
