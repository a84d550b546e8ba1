package policy

import (
	"net/netip"
	"testing"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
)

func recBetween(a, b netip.Addr, bytes uint64) flowlog.Record {
	return flowlog.Record{
		Time: time.Unix(1700000000, 0).UTC(), LocalIP: a, LocalPort: 50000,
		RemoteIP: b, RemotePort: 443, PacketsSent: 1, BytesSent: bytes,
	}
}

func TestEnforcerAllowAndBlock(t *testing.T) {
	g, assign, nodes := fixture()
	e := Enforcer{R: Learn(g, assign)}

	legit := recBetween(nodes["fe1"].Addr, nodes["be1"].Addr, 1000)
	if !e.Allow(legit) {
		t.Error("fe-be flow should be allowed")
	}
	lateral := recBetween(nodes["fe1"].Addr, nodes["db1"].Addr, 1000)
	if e.Allow(lateral) {
		t.Error("fe-db flow should be blocked (never observed)")
	}
	exfil := recBetween(nodes["be1"].Addr, netip.MustParseAddr("198.51.100.66"), 1e9)
	if e.Allow(exfil) {
		t.Error("flow to unknown endpoint should drop under default deny")
	}
	open := Enforcer{R: e.R, AllowUnknownExternal: true}
	if !open.Allow(exfil) {
		t.Error("AllowUnknownExternal should permit unknown endpoints")
	}
}

func TestEnforcerEvaluate(t *testing.T) {
	g, assign, nodes := fixture()
	e := Enforcer{R: Learn(g, assign)}
	attacker := netip.MustParseAddr("198.51.100.66")
	recs := []flowlog.Record{
		recBetween(nodes["fe1"].Addr, nodes["be1"].Addr, 100), // legit, allowed
		recBetween(nodes["be2"].Addr, nodes["db1"].Addr, 100), // legit, allowed
		recBetween(nodes["fe2"].Addr, nodes["fe1"].Addr, 100), // legit-but-new: collateral
		recBetween(nodes["fe1"].Addr, nodes["db1"].Addr, 1e6), // attack, blocked
		recBetween(nodes["be1"].Addr, attacker, 1e9),          // attack, blocked (unknown)
		recBetween(nodes["fe1"].Addr, nodes["be2"].Addr, 1e6), // attack within allowed pair: slips through
	}
	isAttack := func(r flowlog.Record) bool { return r.BytesSent >= 1e6 }
	rep := e.Evaluate(recs, isAttack)
	if rep.LegitAllowed != 2 || rep.LegitBlocked != 1 {
		t.Errorf("legit = %d/%d, want 2 allowed / 1 blocked", rep.LegitAllowed, rep.LegitBlocked)
	}
	if rep.AttackBlocked != 2 || rep.AttackAllowed != 1 {
		t.Errorf("attack = %d blocked / %d allowed, want 2/1", rep.AttackBlocked, rep.AttackAllowed)
	}
	if br := rep.BlockRate(); br < 0.66 || br > 0.67 {
		t.Errorf("BlockRate = %v", br)
	}
	if cr := rep.CollateralRate(); cr < 0.33 || cr > 0.34 {
		t.Errorf("CollateralRate = %v", cr)
	}
}

func TestEnforcementReportEmpty(t *testing.T) {
	var rep EnforcementReport
	if rep.BlockRate() != 0 || rep.CollateralRate() != 0 {
		t.Error("empty report should rate 0")
	}
	_ = graph.Node{}
}

func TestEnforcerEndpointFacet(t *testing.T) {
	// Endpoint-facet policy: clients may reach web:443 but not web:9100.
	web := netip.MustParseAddr("10.5.0.1")
	client := netip.MustParseAddr("10.5.0.9")
	m := graphtest.NewModel(graph.FacetEndpoint)
	m.Add(graph.IPNode(client), graph.IPPortNode(web, 443), graph.Counters{Bytes: 100, Conns: 1})
	g := m.Graph()
	assign := Learnable(g)
	e := Enforcer{R: Learn(g, assign), Facet: graph.FacetEndpoint}

	ok := flowlog.Record{Time: time.Unix(1, 0), LocalIP: client, LocalPort: 50000, RemoteIP: web, RemotePort: 443}
	if !e.Allow(ok) {
		t.Error("client->web:443 should be allowed")
	}
	bad := flowlog.Record{Time: time.Unix(1, 0), LocalIP: client, LocalPort: 50001, RemoteIP: web, RemotePort: 9100}
	if e.Allow(bad) {
		t.Error("client->web:9100 should be blocked (endpoint unknown)")
	}
}
