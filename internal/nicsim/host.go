package nicsim

import (
	"net/netip"
	"slices"
	"sync"
	"time"

	"cloudgraph/internal/flowlog"
)

// Collector receives batches of connection summaries forwarded by host
// agents — the "cloud store or service endpoint" of Figure 7. A Collector
// must be safe for concurrent use if agents run concurrently.
type Collector interface {
	Collect(recs []flowlog.Record) error
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(recs []flowlog.Record) error

// Collect calls f.
func (f CollectorFunc) Collect(recs []flowlog.Record) error { return f(recs) }

// Host models one physical cloud host: a set of VNICs (one per VM placed on
// the host) and the agent that periodically pulls their flow summaries and
// forwards them to a collector. Crucially the agent runs on the host, not in
// any guest, so customers cannot tamper with collection and telemetry stays
// usable even when VMs are breached (§3.1).
type Host struct {
	mu sync.Mutex
	// vnics holds the host's VNICs in address order, the order Pull
	// forwards their records in. PlaceVM replaces the slice instead of
	// inserting in place, so a Pull still reading the old one is unaffected.
	vnics []*VNIC

	idleTimeout time.Duration
}

// NewHost returns an empty host whose VNICs use the given idle timeout.
func NewHost(idleTimeout time.Duration) *Host {
	return &Host{idleTimeout: idleTimeout}
}

// PlaceVM attaches a VNIC for a VM with the given address, returning the
// VNIC. Placing the same address twice returns the existing VNIC.
func (h *Host) PlaceVM(addr netip.Addr) *VNIC {
	h.mu.Lock()
	defer h.mu.Unlock()
	i, ok := slices.BinarySearchFunc(h.vnics, addr, func(v *VNIC, a netip.Addr) int { return v.local.Compare(a) })
	if ok {
		return h.vnics[i]
	}
	v := NewVNIC(addr, h.idleTimeout)
	h.vnics = slices.Insert(slices.Clip(h.vnics), i, v)
	return v
}

// vms returns how many VMs the host holds.
func (h *Host) vms() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.vnics)
}

// Pull is the agent's periodic action: drain every VNIC for the interval
// starting at intervalStart and forward the combined batch to the collector.
// The batch holds the VNICs' records in VNIC address order and is sized
// from the flows they saw this interval. It returns the number of records
// forwarded.
func (h *Host) Pull(intervalStart time.Time, c Collector) (int, error) {
	h.mu.Lock()
	vnics := h.vnics
	h.mu.Unlock()

	pending := 0
	for _, v := range vnics {
		pending += v.pending()
	}
	batch := make([]flowlog.Record, 0, pending)
	for _, v := range vnics {
		batch = v.appendDrain(batch, intervalStart)
	}
	if len(batch) == 0 {
		return 0, nil
	}
	if err := c.Collect(batch); err != nil {
		return 0, err
	}
	return len(batch), nil
}

// Fabric wires a fleet of hosts together and routes Observe calls to both
// endpoints' VNICs, as traffic between two monitored VMs is summarized
// independently by each side's NIC. It is the top-level entry point used by
// the workload generators.
type Fabric struct {
	mu     sync.Mutex
	byVM   map[netip.Addr]*VNIC
	hosts  []*Host
	perVM  int
	idleTO time.Duration
}

// NewFabric returns a fabric that packs vmsPerHost VMs onto each host.
func NewFabric(vmsPerHost int, idleTimeout time.Duration) *Fabric {
	if vmsPerHost <= 0 {
		vmsPerHost = 16
	}
	return &Fabric{byVM: make(map[netip.Addr]*VNIC), perVM: vmsPerHost, idleTO: idleTimeout}
}

// AddVM places a monitored VM on the fabric, creating hosts as needed.
func (f *Fabric) AddVM(addr netip.Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.byVM[addr]; ok {
		return
	}
	var h *Host
	if n := len(f.hosts); n > 0 && f.hosts[n-1].vms() < f.perVM {
		h = f.hosts[n-1]
	} else {
		h = NewHost(f.idleTO)
		f.hosts = append(f.hosts, h)
	}
	f.byVM[addr] = h.PlaceVM(addr)
}

// VNIC returns the VNIC of the monitored VM at addr, or nil if addr is not
// monitored. Callers that observe many flows between known VMs resolve
// their VNICs once and pass them to ObservePair.
func (f *Fabric) VNIC(addr netip.Addr) *VNIC {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.byVM[addr]
}

// Hosts returns the fabric's hosts.
func (f *Fabric) Hosts() []*Host {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Host(nil), f.hosts...)
}

// ObserveFlow records one interval's traffic on the flow src:srcPort ->
// dst:dstPort. Counters are from the sender's perspective: fwd* flowed
// src->dst and rev* flowed dst->src. The flow is logged at the source's VNIC
// if src is monitored and, independently, at the destination's VNIC if dst
// is monitored — producing the double-reporting that ingest deduplicates.
func (f *Fabric) ObserveFlow(src netip.AddrPort, dst netip.AddrPort, fwdPkts, revPkts, fwdBytes, revBytes uint64, now time.Time) {
	f.mu.Lock()
	sv := f.byVM[src.Addr()]
	dv := f.byVM[dst.Addr()]
	f.mu.Unlock()
	ObservePair(sv, dv, src, dst, fwdPkts, revPkts, fwdBytes, revBytes, now)
}

// ObservePair records one interval's traffic on the flow src -> dst, with
// counters from the sender's perspective as in ObserveFlow, at sv (src's
// VNIC) and at dv (dst's VNIC); a nil VNIC is an unmonitored side. Callers
// that resolved both VNICs once (Fabric.VNIC) use it to skip ObserveFlow's
// fabric lock and address lookups.
func ObservePair(sv, dv *VNIC, src, dst netip.AddrPort, fwdPkts, revPkts, fwdBytes, revBytes uint64, now time.Time) {
	if sv != nil {
		sv.Observe(src.Port(), dst, fwdPkts, revPkts, fwdBytes, revBytes, now)
	}
	if dv != nil {
		dv.Observe(dst.Port(), src, revPkts, fwdPkts, revBytes, fwdBytes, now)
	}
}

// PullAll runs every host agent for the interval starting at intervalStart,
// forwarding to c, and returns the total records forwarded.
func (f *Fabric) PullAll(intervalStart time.Time, c Collector) (int, error) {
	total := 0
	for _, h := range f.Hosts() {
		n, err := h.Pull(intervalStart, c)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}
