// Package graph implements the paper's central data structure: complete,
// dynamic, multi-faceted communication graphs built from connection-summary
// telemetry. Nodes can be IP addresses, {IP, port} tuples, or a service
// endpoint's {IP, port} beside its clients' IPs (§1, "Multi-faceted");
// edges carry byte, packet and connection counters.
// A window's dynamics over time live in the sequence of its graphs (the
// timeline and history store), not inside any one edge.
package graph

import (
	"cmp"
	"fmt"
	"net/netip"
	"strings"
)

// Facet selects the node granularity of a communication graph.
type Facet int

const (
	// FacetIP keys nodes by IP address (the paper's default).
	FacetIP Facet = iota
	// FacetIPPort keys nodes by {IP, port} tuple; these graphs are at
	// least an order of magnitude larger (§2.1 footnote).
	FacetIPPort
	// FacetEndpoint keys the service side of each flow by {IP, port} and
	// the client side by IP alone (the side with the lower port is taken
	// as the service). It separates multiple services co-located on one
	// VM — §2.1's "resources may have multiple roles" concern — without
	// the full IP-port graph's ephemeral-port explosion. Every stored
	// window carries its facet's value, so the values never change: 2,
	// a retired service facet, stays unused.
	FacetEndpoint Facet = 3
)

// String returns the facet name.
func (f Facet) String() string {
	switch f {
	case FacetIP:
		return "ip"
	case FacetIPPort:
		return "ip-port"
	case FacetEndpoint:
		return "endpoint"
	}
	return fmt.Sprintf("facet(%d)", int(f))
}

// Node identifies one vertex of a communication graph. It is comparable and
// used directly as a map key. Exactly the fields relevant to the facet are
// set: Addr for FacetIP; Addr+Port for FacetIPPort; Name for synthetic
// nodes such as the heavy-hitter collapse bucket.
type Node struct {
	Addr netip.Addr
	Port uint16
	Name string
}

// IPNode returns the FacetIP node for addr.
func IPNode(addr netip.Addr) Node { return Node{Addr: addr} }

// IPPortNode returns the FacetIPPort node for addr:port.
func IPPortNode(addr netip.Addr, port uint16) Node { return Node{Addr: addr, Port: port} }

// Collapsed is the synthetic node that absorbs every peer below the
// heavy-hitter threshold (§3.2: IPs contributing less than 0.1% of bytes,
// packets or connections are collapsed together).
var Collapsed = Node{Name: "(other)"}

// IsCollapsed reports whether n is the collapse bucket.
func (n Node) IsCollapsed() bool { return n == Collapsed }

// String renders the node for logs and DOT output.
func (n Node) String() string {
	switch {
	case n.Name != "":
		return n.Name
	case n.Port != 0:
		return netip.AddrPortFrom(n.Addr, n.Port).String()
	case n.Addr.IsValid():
		return n.Addr.String()
	}
	return "(invalid)"
}

// Less orders nodes deterministically: by name, then address, then port.
func (n Node) Less(m Node) bool { return n.Compare(m) < 0 }

// Compare is the three-way form of Less, for slices.SortFunc.
func (n Node) Compare(m Node) int {
	if c := strings.Compare(n.Name, m.Name); c != 0 {
		return c
	}
	if c := n.Addr.Compare(m.Addr); c != 0 {
		return c
	}
	return cmp.Compare(n.Port, m.Port)
}

// Metric selects which edge counter an analysis weighs by.
type Metric int

const (
	// Bytes weighs edges by bytes exchanged.
	Bytes Metric = iota
	// Packets weighs edges by packets exchanged.
	Packets
	// Conns weighs edges by number of distinct flows.
	Conns
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case Bytes:
		return "bytes"
	case Packets:
		return "packets"
	case Conns:
		return "connections"
	}
	return fmt.Sprintf("metric(%d)", int(m))
}
