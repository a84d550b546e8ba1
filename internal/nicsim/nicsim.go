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
	"net/netip"
	"sort"
	"sync"
	"time"

	"cloudgraph/internal/flowlog"
)

// flowKey identifies one direction-normalized flow on a VNIC: the local
// endpoint is fixed (the VM the VNIC serves), so the key is the local port
// plus the remote endpoint.
type flowKey struct {
	localPort uint16
	remote    netip.AddrPort
}

// flowState is the per-flow counter block a smartNIC keeps. EntrySize is its
// approximate hardware footprint, used for the memory-proportionality
// experiment (log and memory footprint scale with concurrent flows, §3.1).
type flowState struct {
	pktsSent, pktsRcvd   uint64
	bytesSent, bytesRcvd uint64
	lastSeen             time.Time
}

// EntrySize is the modelled per-flow memory footprint in bytes: the key
// (local port + remote IP:port) plus four counters and a timestamp.
const EntrySize = 2 + 18 + 8*5

// VNIC is the virtual NIC attached to one monitored VM. It accumulates
// per-flow counters exactly as the smartNIC's flow table would; flows idle
// longer than the idle timeout are evicted at the next Drain (their final
// counters are still reported).
type VNIC struct {
	mu    sync.Mutex
	local netip.Addr
	flows map[flowKey]*flowState

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
		flows:       make(map[flowKey]*flowState),
		idleTimeout: idleTimeout,
	}
}

// Observe records traffic on the flow (localPort, remote) at time now:
// bytesSent/pktsSent left the VM, bytesRcvd/pktsRcvd arrived. This is the
// only work on the data path — a few counter updates, matching the paper's
// argument that the interference is negligible.
func (v *VNIC) Observe(localPort uint16, remote netip.AddrPort, pktsSent, pktsRcvd, bytesSent, bytesRcvd uint64, now time.Time) {
	k := flowKey{localPort: localPort, remote: remote}
	v.mu.Lock()
	st, ok := v.flows[k]
	if !ok {
		st = &flowState{}
		v.flows[k] = st
	}
	st.pktsSent += pktsSent
	st.pktsRcvd += pktsRcvd
	st.bytesSent += bytesSent
	st.bytesRcvd += bytesRcvd
	st.lastSeen = now
	v.mu.Unlock()
}

// Drain emits one connection summary per active flow for the interval
// starting at intervalStart, resets the counters, and evicts idle flows.
// Flows with no traffic this interval produce no record (NSG flow logs only
// log active flows). Records are sorted for determinism.
func (v *VNIC) Drain(intervalStart time.Time) []flowlog.Record {
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
		*st = flowState{lastSeen: st.lastSeen}
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

// ActiveFlows returns the number of flows currently in the table.
func (v *VNIC) ActiveFlows() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.flows)
}

// MemoryFootprint returns the modelled NIC memory in bytes currently used
// for telemetry state.
func (v *VNIC) MemoryFootprint() int {
	return v.ActiveFlows() * EntrySize
}
