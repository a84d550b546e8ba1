package nicsim

import (
	"math"
	"math/rand"
	"net/netip"
	"sort"
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

// naiveVNIC is the flow table as first written — one heap-allocated
// counter block per flow in a map keyed by netip.AddrPort, drained by
// walking the whole map and sorting the records — kept as the oracle the
// slot table must match exactly.
type naiveVNIC struct {
	mu          sync.Mutex
	local       netip.Addr
	flows       map[naiveFlowKey]*naiveFlowState
	idleTimeout time.Duration
}

type naiveFlowKey struct {
	localPort uint16
	remote    netip.AddrPort
}

type naiveFlowState struct {
	pktsSent, pktsRcvd   uint64
	bytesSent, bytesRcvd uint64
	lastSeen             time.Time
}

func newNaiveVNIC(local netip.Addr, idleTimeout time.Duration) *naiveVNIC {
	return &naiveVNIC{local: local, flows: make(map[naiveFlowKey]*naiveFlowState), idleTimeout: idleTimeout}
}

func (v *naiveVNIC) Observe(localPort uint16, remote netip.AddrPort, pktsSent, pktsRcvd, bytesSent, bytesRcvd uint64, now time.Time) {
	k := naiveFlowKey{localPort: localPort, remote: remote}
	v.mu.Lock()
	st, ok := v.flows[k]
	if !ok {
		st = &naiveFlowState{}
		v.flows[k] = st
	}
	st.pktsSent += pktsSent
	st.pktsRcvd += pktsRcvd
	st.bytesSent += bytesSent
	st.bytesRcvd += bytesRcvd
	st.lastSeen = now
	v.mu.Unlock()
}

func (v *naiveVNIC) Drain(intervalStart time.Time) []flowlog.Record {
	v.mu.Lock()
	defer v.mu.Unlock()
	recs := make([]flowlog.Record, 0, len(v.flows))
	for k, st := range v.flows {
		if st.pktsSent+st.pktsRcvd > 0 {
			recs = append(recs, flowlog.Record{
				Time:        intervalStart,
				LocalIP:     v.local,
				LocalPort:   k.localPort,
				RemoteIP:    k.remote.Addr(),
				RemotePort:  k.remote.Port(),
				PacketsSent: st.pktsSent,
				PacketsRcvd: st.pktsRcvd,
				BytesSent:   st.bytesSent,
				BytesRcvd:   st.bytesRcvd,
			})
		}
		if v.idleTimeout > 0 && intervalStart.Sub(st.lastSeen) >= v.idleTimeout {
			delete(v.flows, k)
			continue
		}
		*st = naiveFlowState{lastSeen: st.lastSeen}
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if c := a.RemoteIP.Compare(b.RemoteIP); c != 0 {
			return c < 0
		}
		if a.RemotePort != b.RemotePort {
			return a.RemotePort < b.RemotePort
		}
		return a.LocalPort < b.LocalPort
	})
	return recs
}

func (v *naiveVNIC) ActiveFlows() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.flows)
}

// Operand pools of the schedule driver. Small pools make flows recur:
// ports come back inside the idle window, and a remote's IPv4, 4-in-6 and
// zoned forms share address words.
var (
	schedRemotes = []netip.Addr{
		ext,
		vmB,
		netip.MustParseAddr("::ffff:203.0.113.7"),
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("2001:db8::1%eth0"),
		netip.MustParseAddr("2001:db8::1%eth1"),
		netip.MustParseAddr("fe80::1%eth0"),
		netip.MustParseAddr("::"),
		netip.MustParseAddr("0.0.0.0"),
		netip.MustParseAddr("ffff::1"),
		{},
	}
	schedPorts  = []uint16{0, 1, 443, 32768, 65535}
	schedCounts = []uint64{0, 1, 2, 1460, 1 << 63, math.MaxUint64}
	schedSteps  = []time.Duration{0, time.Nanosecond, time.Second, 30 * time.Second, time.Minute, -time.Second}
	schedIdle   = []time.Duration{0, time.Nanosecond, time.Minute, 4 * time.Minute, -time.Minute}
)

// schedule reads a byte string as a sequence of table operations; bytes
// past the end read as zero.
type schedule struct{ b []byte }

func (s *schedule) next() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

// observation is one Observe call's arguments.
type observation struct {
	localPort                                uint16
	remote                                   netip.AddrPort
	pktsSent, pktsRcvd, bytesSent, bytesRcvd uint64
}

func (s *schedule) observation() observation {
	return observation{
		localPort: schedPorts[s.next()%len(schedPorts)],
		remote:    netip.AddrPortFrom(schedRemotes[s.next()%len(schedRemotes)], schedPorts[s.next()%len(schedPorts)]),
		pktsSent:  schedCounts[s.next()%len(schedCounts)],
		pktsRcvd:  schedCounts[s.next()%len(schedCounts)],
		bytesSent: schedCounts[s.next()%len(schedCounts)],
		bytesRcvd: schedCounts[s.next()%len(schedCounts)],
	}
}

// runSchedule drives a VNIC and the naive oracle with the same operations
// and fails at the first step where a drain's records or the resident flow
// count differ. Operations: observe one flow and step the clock; drain at
// the clock, at one nanosecond before, at or after the last observation's
// idle deadline, or a minute on; observe a batch of flows from four
// goroutines at once (at one timestamp, so last-seen does not depend on
// the interleaving); step the clock.
func runSchedule(t *testing.T, idle time.Duration, ops []byte) {
	t.Helper()
	v, ref := NewVNIC(vmA, idle), newNaiveVNIC(vmA, idle)
	s := &schedule{b: ops}
	now, lastObs := t0, t0
	for step := 0; len(s.b) > 0; step++ {
		switch s.next() % 4 {
		case 0:
			o := s.observation()
			v.Observe(o.localPort, o.remote, o.pktsSent, o.pktsRcvd, o.bytesSent, o.bytesRcvd, now)
			ref.Observe(o.localPort, o.remote, o.pktsSent, o.pktsRcvd, o.bytesSent, o.bytesRcvd, now)
			lastObs = now
			now = now.Add(schedSteps[s.next()%len(schedSteps)])
		case 1:
			at := [...]time.Time{now, lastObs.Add(idle - time.Nanosecond), lastObs.Add(idle), lastObs.Add(idle + time.Nanosecond), now.Add(time.Minute)}[s.next()%5]
			got, want := v.Drain(at), ref.Drain(at)
			if len(got) != len(want) {
				t.Fatalf("step %d: Drain(%v) = %d records, oracle %d\ngot  %+v\nwant %+v", step, at, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: Drain(%v) record %d = %+v, oracle %+v", step, at, i, got[i], want[i])
				}
			}
			now = at
		case 2:
			batch := make([]observation, 1+s.next()%8)
			for i := range batch {
				batch[i] = s.observation()
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, o := range batch {
						v.Observe(o.localPort, o.remote, o.pktsSent, o.pktsRcvd, o.bytesSent, o.bytesRcvd, now)
						ref.Observe(o.localPort, o.remote, o.pktsSent, o.pktsRcvd, o.bytesSent, o.bytesRcvd, now)
					}
				}()
			}
			wg.Wait()
			lastObs = now
		case 3:
			now = now.Add(schedSteps[s.next()%len(schedSteps)])
		}
		if got, want := v.ActiveFlows(), ref.ActiveFlows(); got != want {
			t.Fatalf("step %d: ActiveFlows = %d, oracle %d", step, got, want)
		}
	}
}

// seededSchedule returns n random schedule bytes from seed.
func seededSchedule(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestVNICMatchesNaive runs seeded schedules through the slot table and
// the naive map-of-pointers table and requires identical drains and flow
// counts after every step, for every idle timeout of the driver (zero,
// one nanosecond, one and four minutes, negative).
func TestVNICMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ops := seededSchedule(seed, 600)
		for _, idle := range schedIdle {
			runSchedule(t, idle, ops)
		}
	}
}

// FuzzVNICSchedule is TestVNICMatchesNaive over arbitrary schedules.
func FuzzVNICSchedule(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(byte(seed), seededSchedule(seed, 200))
	}
	f.Fuzz(func(t *testing.T, idle byte, ops []byte) {
		runSchedule(t, schedIdle[int(idle)%len(schedIdle)], ops)
	})
}

// TestVNICSteadyStateAllocs pins the table's allocation budget once its
// slices have grown: observing a resident flow allocates nothing, and a
// drain or a host pull allocates the returned batch and nothing else.
func TestVNICSteadyStateAllocs(t *testing.T) {
	h := NewHost(4 * time.Minute)
	v := h.PlaceVM(vmA)
	h.PlaceVM(vmB)
	observeAll := func() {
		for p := uint16(0); p < 64; p++ {
			v.Observe(40000+p, netip.AddrPortFrom(ext, 443), 1, 1, 100, 100, t0)
		}
	}
	observeAll()
	v.Drain(t0)
	if n := testing.AllocsPerRun(100, func() { v.Observe(40000, netip.AddrPortFrom(ext, 443), 1, 1, 100, 100, t0) }); n != 0 {
		t.Errorf("Observe of a resident flow: %.1f allocs, want 0", n)
	}
	v.Drain(t0)
	if n := testing.AllocsPerRun(100, func() {
		observeAll()
		if recs := v.Drain(t0); len(recs) != 64 {
			t.Fatalf("Drain = %d records, want 64", len(recs))
		}
	}); n > 1 {
		t.Errorf("observe + Drain: %.1f allocs, want at most the batch", n)
	}
	sink := CollectorFunc(func([]flowlog.Record) error { return nil })
	if n := testing.AllocsPerRun(100, func() {
		observeAll()
		if n, err := h.Pull(t0, sink); err != nil || n != 64 {
			t.Fatalf("Pull = %d, %v; want 64 records", n, err)
		}
	}); n > 1 {
		t.Errorf("observe + Pull: %.1f allocs, want at most the batch", n)
	}
}
