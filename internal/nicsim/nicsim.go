// Package nicsim simulates the telemetry collection path of Figure 7 in the
// paper: programmable NICs (or the virtual switch) attached to every cloud
// host keep per-flow state for the network functions they already implement;
// recording a few extra counters per flow and letting a host agent
// periodically pull and forward the summaries yields connection-summary
// telemetry with zero impact on the resources a customer pays for.
//
// The simulation is driven by explicit timestamps rather than wall-clock
// time so experiments are deterministic: traffic is reported to a VNIC with
// Observe, and the host agent's periodic pull is modelled by Drain.
package nicsim

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"

	"cloudgraph/internal/flowlog"
)

// Address kinds of a flowKey. The words of an IPv4 address and of its
// 4-in-6 form are equal, so the kind keeps them apart; a zoned IPv6 remote
// has kind kindZoned+i for the VNIC's i-th zone name.
const (
	kindInvalid uint32 = iota
	kindV4
	kindV6
	kindZoned
)

// flowKey identifies one direction-normalized flow on a VNIC: the local
// endpoint is fixed (the VM the VNIC serves), so the key is the local port
// plus the remote endpoint. It holds no pointer — the remote address is
// its two words (flowlog.AddrWords) and a kind — so neither the table's
// map nor its key slice is scanned by the garbage collector.
type flowKey struct {
	hi, lo     uint64
	kind       uint32
	remotePort uint16
	localPort  uint16
}

// lastSeen is a slot's last observation time as Unix seconds and
// nanoseconds, plus live: 1 + the index of the flow's counters in
// VNIC.live while it has been observed since the last drain, else 0.
type lastSeen struct {
	sec  int64
	nsec int32
	live int32
}

// counters is the per-flow counter block a smartNIC keeps for one interval.
type counters struct {
	pktsSent, pktsRcvd   uint64
	bytesSent, bytesRcvd uint64
}

// EntrySize is the modelled per-flow memory footprint in bytes: the key
// (local port + remote IP:port) plus four counters and a timestamp. It is
// the hardware table's footprint, used for the memory-proportionality
// experiment (log and memory footprint scale with concurrent flows, §3.1),
// not the simulation's.
const EntrySize = 2 + 18 + 8*5

// VNIC is the virtual NIC attached to one monitored VM. It accumulates
// per-flow counters exactly as the smartNIC's flow table would; flows idle
// longer than the idle timeout are evicted at the next Drain (their final
// counters are still reported).
//
// Every resident flow owns a dense slot: slot maps its key to the slot,
// and keys and seen hold the slot's key and last-seen time. Only the flows
// observed since the last drain have counters: live, in first-observation
// order, with touched naming their slots. Drain therefore costs what this
// interval's flows cost — it sorts and emits touched — plus a sequential
// sweep of seen for idle slots.
type VNIC struct {
	mu    sync.Mutex
	local netip.Addr

	slot    map[flowKey]int32
	keys    []flowKey
	seen    []lastSeen
	live    []counters
	touched []int32

	// zones interns the zone names of zoned IPv6 remotes (kindZoned+i).
	zones  []string
	zoneOf map[string]uint32

	// IdleTimeout evicts flows not seen for this long at Drain time.
	// Zero means never evict between drains (flows are always flushed
	// and reset each interval regardless).
	idleTimeout time.Duration
}

// NewVNIC returns a VNIC for the VM with address local. idleTimeout governs
// flow-table eviction; 4 minutes is typical for hardware flow tables.
func NewVNIC(local netip.Addr, idleTimeout time.Duration) *VNIC {
	return &VNIC{
		local:       local,
		slot:        make(map[flowKey]int32),
		idleTimeout: idleTimeout,
	}
}

// Observe records traffic on the flow (localPort, remote) at time now:
// bytesSent/pktsSent left the VM, bytesRcvd/pktsRcvd arrived. This is the
// only work on the data path — a few counter updates, matching the paper's
// argument that the interference is negligible.
func (v *VNIC) Observe(localPort uint16, remote netip.AddrPort, pktsSent, pktsRcvd, bytesSent, bytesRcvd uint64, now time.Time) {
	addr := remote.Addr()
	hi, lo := flowlog.AddrWords(addr)
	k := flowKey{hi: hi, lo: lo, remotePort: remote.Port(), localPort: localPort}
	sec, nsec := now.Unix(), int32(now.Nanosecond())
	v.mu.Lock()
	k.kind = v.kindOf(addr)
	s, ok := v.slot[k]
	if !ok {
		s = int32(len(v.keys))
		v.slot[k] = s
		v.keys = append(v.keys, k)
		v.seen = append(v.seen, lastSeen{})
	}
	st := &v.seen[s]
	st.sec, st.nsec = sec, nsec
	if st.live == 0 {
		v.touched = append(v.touched, s)
		v.live = append(v.live, counters{})
		st.live = int32(len(v.live))
	}
	c := &v.live[st.live-1]
	c.pktsSent += pktsSent
	c.pktsRcvd += pktsRcvd
	c.bytesSent += bytesSent
	c.bytesRcvd += bytesRcvd
	v.mu.Unlock()
}

// kindOf returns addr's flowKey kind, interning a new zone name. v.mu is
// held.
func (v *VNIC) kindOf(addr netip.Addr) uint32 {
	if addr.Is4() {
		return kindV4
	}
	if !addr.IsValid() {
		return kindInvalid
	}
	zone := addr.Zone()
	if zone == "" {
		return kindV6
	}
	i, ok := v.zoneOf[zone]
	if !ok {
		if v.zoneOf == nil {
			v.zoneOf = make(map[string]uint32)
		}
		i = uint32(len(v.zones))
		v.zones = append(v.zones, zone)
		v.zoneOf[zone] = i
	}
	return kindZoned + i
}

// remoteAddr rebuilds the remote address of k.
func (v *VNIC) remoteAddr(k *flowKey) netip.Addr {
	switch k.kind {
	case kindInvalid:
		return netip.Addr{}
	case kindV4:
		return netip.AddrFrom4([4]byte{byte(k.lo >> 24), byte(k.lo >> 16), byte(k.lo >> 8), byte(k.lo)})
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k.hi)
	binary.BigEndian.PutUint64(b[8:], k.lo)
	a := netip.AddrFrom16(b)
	if k.kind >= kindZoned {
		a = a.WithZone(v.zones[k.kind-kindZoned])
	}
	return a
}

// family ranks a kind as netip.Addr.Compare ranks bit lengths: invalid,
// then IPv4, then IPv6 (zoned or not).
func family(kind uint32) uint32 { return min(kind, kindV6) }

// compareSlots orders two slots as Drain emits them: remote address (in
// netip.Addr.Compare order), remote port, local port.
func (v *VNIC) compareSlots(a, b int32) int {
	ka, kb := &v.keys[a], &v.keys[b]
	if c := cmp.Compare(family(ka.kind), family(kb.kind)); c != 0 {
		return c
	}
	if c := cmp.Compare(ka.hi, kb.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(ka.lo, kb.lo); c != 0 {
		return c
	}
	if ka.kind != kb.kind { // two IPv6 remotes in different zones
		if c := strings.Compare(v.zoneName(ka.kind), v.zoneName(kb.kind)); c != 0 {
			return c
		}
	}
	if c := cmp.Compare(ka.remotePort, kb.remotePort); c != 0 {
		return c
	}
	return cmp.Compare(ka.localPort, kb.localPort)
}

// zoneName returns the zone of an IPv6 kind ("" for kindV6).
func (v *VNIC) zoneName(kind uint32) string {
	if kind < kindZoned {
		return ""
	}
	return v.zones[kind-kindZoned]
}

// Drain emits one connection summary per active flow for the interval
// starting at intervalStart, resets the counters, and evicts idle flows.
// Flows with no traffic this interval produce no record (NSG flow logs only
// log active flows). Records are sorted for determinism.
func (v *VNIC) Drain(intervalStart time.Time) []flowlog.Record {
	return v.appendDrain(make([]flowlog.Record, 0, v.pending()), intervalStart)
}

// pending returns how many flows were observed since the last drain: an
// upper bound on the records the next drain emits.
func (v *VNIC) pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.touched)
}

// appendDrain is Drain appending to dst: it appends the interval's records
// in (remote address, remote port, local port) order, clears the counters
// and evicts the flows whose last observation is idleTimeout or more
// before intervalStart.
func (v *VNIC) appendDrain(dst []flowlog.Record, intervalStart time.Time) []flowlog.Record {
	v.mu.Lock()
	defer v.mu.Unlock()
	slices.SortFunc(v.touched, v.compareSlots)
	for _, s := range v.touched {
		st := &v.seen[s]
		c := v.live[st.live-1]
		st.live = 0
		if c.pktsSent+c.pktsRcvd == 0 {
			continue
		}
		k := &v.keys[s]
		dst = append(dst, flowlog.Record{
			Time:        intervalStart,
			LocalIP:     v.local,
			LocalPort:   k.localPort,
			RemoteIP:    v.remoteAddr(k),
			RemotePort:  k.remotePort,
			PacketsSent: c.pktsSent,
			PacketsRcvd: c.pktsRcvd,
			BytesSent:   c.bytesSent,
			BytesRcvd:   c.bytesRcvd,
		})
	}
	v.touched, v.live = v.touched[:0], v.live[:0]
	if v.idleTimeout > 0 {
		v.evict(intervalStart.Add(-v.idleTimeout))
	}
	return dst
}

// evict removes every flow last seen at or before cutoff — those with
// intervalStart.Sub(lastSeen) >= idleTimeout — in one pass over seen,
// moving the last slot into each freed one. No flow is live (drain has
// just reset them all), so only the key and the time move.
func (v *VNIC) evict(cutoff time.Time) {
	csec, cnsec := cutoff.Unix(), int32(cutoff.Nanosecond())
	for i := 0; i < len(v.seen); {
		st := v.seen[i]
		if st.sec > csec || st.sec == csec && st.nsec > cnsec {
			i++
			continue
		}
		delete(v.slot, v.keys[i])
		last := len(v.seen) - 1
		if i < last {
			v.keys[i], v.seen[i] = v.keys[last], v.seen[last]
			v.slot[v.keys[i]] = int32(i)
		}
		v.keys, v.seen = v.keys[:last], v.seen[:last]
	}
}

// ActiveFlows returns the number of flows currently in the table.
func (v *VNIC) ActiveFlows() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.keys)
}

// MemoryFootprint returns the modelled NIC memory in bytes currently used
// for telemetry state.
func (v *VNIC) MemoryFootprint() int {
	return v.ActiveFlows() * EntrySize
}
