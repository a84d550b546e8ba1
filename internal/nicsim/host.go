package nicsim

import (
	"log/slog"
	"net/netip"
	"slices"
	"strconv"
	"sync"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/trace"
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

// TracedCollector is a Collector that can also accept the per-record trace
// contexts of a sampled batch. tcs is either nil or parallel to recs, with
// the zero Context on unsampled records. Collectors that don't implement
// it still receive the records — tracing degrades, the data does not.
type TracedCollector interface {
	Collector
	CollectTraced(recs []flowlog.Record, tcs []trace.Context) error
}

// forward hands a batch to c, through the traced path when the batch has
// sampled records and the collector supports it.
func forward(c Collector, recs []flowlog.Record, tcs []trace.Context) error {
	if tcs != nil {
		if tc, ok := c.(TracedCollector); ok {
			return tc.CollectTraced(recs, tcs)
		}
	}
	return c.Collect(recs)
}

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

	// Fabric-wide tracer, bound by Fabric.Trace (nil when off). All
	// tracer methods are nil-safe, but Pull still branches on it to skip
	// the per-record sampling loop entirely when tracing is disabled.
	tracer *trace.Tracer
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

// Pull is the agent's periodic action: drain every VNIC for the interval
// starting at intervalStart and forward the combined batch to the collector.
// The batch holds the VNICs' records in VNIC address order and is sized
// from the flows they saw this interval. It returns the number of records
// forwarded.
func (h *Host) Pull(intervalStart time.Time, c Collector) (int, error) {
	h.mu.Lock()
	tracer := h.tracer
	vnics := h.vnics
	h.mu.Unlock()

	sampling := tracer.Sampling()
	var drainStart time.Time
	if sampling {
		//lint:allow detclock span timestamps are observability-only and never reach the record stream
		drainStart = time.Now()
	}
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

	// Sample trace contexts out-of-band: tcs is parallel to batch, never
	// stored in the records themselves, so replay streams stay
	// byte-identical whether or not a tracer is attached.
	var tcs []trace.Context
	if sampling {
		for i := range batch {
			if ctx := tracer.Sample(); ctx.Sampled() {
				if tcs == nil {
					tcs = make([]trace.Context, len(batch))
				}
				tcs[i] = ctx
			}
		}
		//lint:allow detclock span timestamps are observability-only and never reach the record stream
		drainDur := time.Since(drainStart)
		note := "records=" + strconv.Itoa(len(batch)) + " vnics=" + strconv.Itoa(len(vnics))
		for _, tc := range tcs {
			if tc.Sampled() {
				tracer.Record(tc, "nicsim.pull", drainStart, drainDur, note)
			}
		}
	}

	if err := forward(c, batch, tcs); err != nil {
		tracer.Eventf(trace.Context{}, "nicsim", slog.LevelError, "collector rejected batch of %d records: %v", len(batch), err)
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

	// Fleet tracer bound by Trace; new hosts inherit it.
	tracer *trace.Tracer
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
	if n := len(f.hosts); n > 0 && len(f.hosts[n-1].vnics) < f.perVM {
		h = f.hosts[n-1]
	} else {
		h = NewHost(f.idleTO)
		h.mu.Lock()
		h.tracer = f.tracer
		h.mu.Unlock()
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

// Trace binds tr to every current and future host, making host agents
// sample drained records and record "nicsim.pull" spans — the first hop of
// the record's journey through the pipeline. A nil tracer (or never
// calling Trace) leaves collection untraced; the record stream is
// byte-identical either way because contexts travel out-of-band.
func (f *Fabric) Trace(tr *trace.Tracer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tracer = tr
	for _, h := range f.hosts {
		h.mu.Lock()
		h.tracer = tr
		h.mu.Unlock()
	}
}
