package cluster

import (
	"net/netip"
	"testing"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
	"cloudgraph/internal/nicsim"
)

var t0 = time.Unix(1700000000, 0).UTC().Truncate(time.Minute)

// tinySpec is a fast two-role cluster for unit tests.
func tinySpec() Spec {
	return Spec{
		Name: "tiny",
		Seed: 7,
		Roles: []RoleSpec{
			{Name: "fe", Count: 3, Port: 443},
			{Name: "be", Count: 2, Port: 9000},
			{Name: "client", Count: 5, External: true},
		},
		Links: []LinkSpec{
			{Src: "client", Dst: "fe", FlowsPerMin: 4, Fanout: 1, FwdBytes: 500, RevBytes: 5000},
			{Src: "fe", Dst: "be", FlowsPerMin: 10, Fanout: -1, FwdBytes: 1000, RevBytes: 2000},
		},
	}
}

func mustCluster(t *testing.T, s Spec) *Cluster {
	t.Helper()
	c, err := New(s)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Spec{Name: "empty"}); err == nil {
		t.Error("want error for spec with no roles")
	}
	bad := tinySpec()
	bad.Links = append(bad.Links, LinkSpec{Src: "fe", Dst: "nosuch"})
	if _, err := New(bad); err == nil {
		t.Error("want error for unknown link role")
	}
	dup := tinySpec()
	dup.Roles = append(dup.Roles, RoleSpec{Name: "fe", Count: 1})
	if _, err := New(dup); err == nil {
		t.Error("want error for duplicate role")
	}
	zero := tinySpec()
	zero.Roles[0].Count = 0
	if _, err := New(zero); err == nil {
		t.Error("want error for zero-count role")
	}
}

func TestRolesAndMonitoring(t *testing.T) {
	c := mustCluster(t, tinySpec())
	if got := c.MonitoredIPs(); got != 5 {
		t.Errorf("MonitoredIPs = %d, want 5 (3 fe + 2 be)", got)
	}
	fes := c.Addresses("fe")
	if len(fes) != 3 {
		t.Fatalf("fe addresses = %v", fes)
	}
	if inst := c.byAddr[fes[0]]; inst == nil || inst.role.Name != "fe" {
		t.Errorf("fe[0] is not an fe instance: %+v", inst)
	}
	if !c.Monitored(fes[0]) {
		t.Error("fe instance should be monitored")
	}
	clients := c.Addresses("client")
	if c.Monitored(clients[0]) {
		t.Error("external client should not be monitored")
	}
	gt := c.GroundTruth()
	if len(gt) != 5 {
		t.Errorf("GroundTruth size = %d, want 5", len(gt))
	}
	if gt[graph.IPNode(fes[0])] != "fe" {
		t.Error("ground truth label wrong")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	collect := func() []flowlog.Record {
		c := mustCluster(t, tinySpec())
		recs, err := c.CollectHour(t0)
		if err != nil {
			t.Fatalf("CollectHour: %v", err)
		}
		return recs
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic record count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between runs", i)
		}
	}
	if len(a) == 0 {
		t.Fatal("no records generated")
	}
}

func TestTrafficFollowsLinks(t *testing.T) {
	c := mustCluster(t, tinySpec())
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	g := graphtest.Of(graph.Build(recs, graph.BuilderOptions{Facet: graph.FacetIP}))
	// fe <-> be must be fully connected (fanout -1, high rate).
	for _, fe := range c.Addresses("fe") {
		for _, be := range c.Addresses("be") {
			if pc := g.PairCounters(graph.IPNode(fe), graph.IPNode(be)); pc.Bytes == 0 {
				t.Errorf("no traffic between fe %v and be %v", fe, be)
			}
		}
	}
	// clients never talk to be directly.
	for _, cl := range c.Addresses("client") {
		for _, be := range c.Addresses("be") {
			if pc := g.PairCounters(graph.IPNode(cl), graph.IPNode(be)); pc.Bytes != 0 {
				t.Errorf("client %v talked to backend %v: traffic outside declared links", cl, be)
			}
		}
	}
}

func TestPersistentLinkReusesFlow(t *testing.T) {
	s := Spec{
		Name: "p", Seed: 1,
		Roles: []RoleSpec{
			{Name: "a", Count: 1, Port: 1000},
			{Name: "b", Count: 1, Port: 2000},
		},
		Links: []LinkSpec{{Src: "a", Dst: "b", FlowsPerMin: 5, Fanout: -1, FwdBytes: 100, RevBytes: 100, Persistent: true}},
	}
	c := mustCluster(t, s)
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[flowlog.FlowKey]bool)
	for _, r := range recs {
		keys[r.Key()] = true
	}
	if len(keys) != 1 {
		t.Errorf("persistent link produced %d distinct flows, want 1", len(keys))
	}
}

func TestEphemeralPortsAdvance(t *testing.T) {
	s := tinySpec()
	c := mustCluster(t, s)
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[flowlog.FlowKey]bool)
	for _, r := range recs {
		keys[r.Key()] = true
	}
	if len(keys) < 100 {
		t.Errorf("expected many distinct ephemeral flows, got %d", len(keys))
	}
}

func TestPresetsConstruct(t *testing.T) {
	for _, name := range PresetNames() {
		spec, err := Preset(name, 0.05)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if _, err := New(spec); err != nil {
			t.Errorf("New(%s): %v", name, err)
		}
	}
	if _, err := Preset("nosuch", 1); err == nil {
		t.Error("want error for unknown preset")
	}
}

func TestPresetMonitoredCounts(t *testing.T) {
	// Full-scale monitored-VM counts should match Table 1's "#IPs mon.".
	cases := []struct {
		name string
		want int
	}{
		{"portal", 4},
		{"microservicebench", 16},
		{"k8spaas", 390},
		{"kquery", 1400},
	}
	for _, cse := range cases {
		spec, err := Preset(cse.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		mon := 0
		for _, r := range spec.Roles {
			if !r.External {
				mon += r.Count
			}
		}
		if mon != cse.want {
			t.Errorf("%s: monitored = %d, want %d (Table 1)", cse.name, mon, cse.want)
		}
	}
}

func TestPortScanInjection(t *testing.T) {
	c := mustCluster(t, tinySpec())
	c.AddAttack(PortScan{
		AttackerRole: "fe", AttackerIdx: 0, TargetRole: "be",
		PortsPerMin: 50, Start: t0, Duration: 5 * time.Minute,
	})
	var recs []flowlog.Record
	if _, err := c.Run(t0, 10, nicsim.CollectorFunc(func(b []flowlog.Record) error {
		recs = append(recs, b...)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	attacker := c.Addresses("fe")[0]
	scanPorts := make(map[uint16]bool)
	for _, r := range recs {
		if r.LocalIP == attacker && r.RemotePort < 10001 && r.RemotePort != 9000 {
			scanPorts[r.RemotePort] = true
		}
	}
	if len(scanPorts) < 40 {
		t.Errorf("port scan produced %d distinct scanned ports, want many", len(scanPorts))
	}
}

func TestExfiltrationInjection(t *testing.T) {
	c := mustCluster(t, tinySpec())
	c2 := netip.MustParseAddr("198.51.100.66")
	c.AddAttack(Exfiltration{
		SourceRole: "be", SourceIdx: 1, Destination: c2,
		BytesPerMin: 50_000_000, Start: t0, Duration: 10 * time.Minute,
	})
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	victim := c.Addresses("be")[1]
	var exfil uint64
	for _, r := range recs {
		if r.LocalIP == victim && r.RemoteIP == c2 {
			exfil += r.BytesSent
		}
	}
	if exfil != 10*50_000_000 {
		t.Errorf("exfiltrated bytes = %d, want %d", exfil, uint64(10*50_000_000))
	}
}

func TestBeaconPeriodicity(t *testing.T) {
	c := mustCluster(t, tinySpec())
	c2 := netip.MustParseAddr("198.51.100.99")
	c.AddAttack(Beacon{
		SourceRole: "fe", SourceIdx: 1, C2: c2, Period: 5 * time.Minute,
		Bytes: 256, Start: t0, Duration: time.Hour,
	})
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	beacons := 0
	for _, r := range recs {
		if r.RemoteIP == c2 {
			beacons++
		}
	}
	if beacons != 12 {
		t.Errorf("beacon count over an hour at 5m period = %d, want 12", beacons)
	}
}

func TestLateralMovementTargetsServicePort(t *testing.T) {
	c := mustCluster(t, tinySpec())
	c.AddAttack(LateralMovement{
		AttackerRole: "client", AttackerIdx: 0, TargetRole: "be",
		FlowsPerMin: 3, Bytes: 4096, Start: t0, Duration: 3 * time.Minute,
	})
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	attacker := c.Addresses("client")[0]
	hits := 0
	for _, r := range recs {
		if r.RemoteIP == attacker && r.LocalPort == 9000 {
			hits++
		}
	}
	if hits == 0 {
		t.Error("lateral movement left no trace at the victim's service port")
	}
}

func TestAttackOutsideWindowInert(t *testing.T) {
	c := mustCluster(t, tinySpec())
	c.AddAttack(PortScan{
		AttackerRole: "fe", AttackerIdx: 0, TargetRole: "be",
		PortsPerMin: 50, Start: t0.Add(-time.Hour), Duration: 5 * time.Minute,
	})
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	attacker := c.Addresses("fe")[0]
	for _, r := range recs {
		if r.LocalIP == attacker && r.RemotePort != 9000 && r.RemotePort >= 1 && r.RemotePort <= 10000 {
			t.Fatalf("scan flow observed outside attack window: %+v", r)
		}
	}
}

func TestDerivePortStable(t *testing.T) {
	if derivePort("frontend") != derivePort("frontend") {
		t.Error("derivePort not deterministic")
	}
	p := derivePort("x")
	if p < 1024 {
		t.Errorf("derived port %d below 1024", p)
	}
}

func TestColocatedRoles(t *testing.T) {
	s := Spec{
		Name: "colo", Seed: 4,
		Roles: []RoleSpec{
			{Name: "web", Count: 4, Port: 443},
			{Name: "metrics", ColocateWith: "web", Port: 9100},
			{Name: "scraper", Count: 2, Port: 9999},
			{Name: "client", Count: 6, External: true},
		},
		Links: []LinkSpec{
			{Src: "client", Dst: "web", FlowsPerMin: 10, Fanout: -1, FwdBytes: 500, RevBytes: 4000},
			{Src: "scraper", Dst: "metrics", FlowsPerMin: 10, Fanout: -1, FwdBytes: 200, RevBytes: 9000},
		},
	}
	c := mustCluster(t, s)
	// Colocated role shares addresses with its host role.
	web, metrics := c.Addresses("web"), c.Addresses("metrics")
	if len(metrics) != len(web) {
		t.Fatalf("metrics instances = %d, want %d (shared)", len(metrics), len(web))
	}
	for i := range web {
		if web[i] != metrics[i] {
			t.Errorf("instance %d not shared: %v vs %v", i, web[i], metrics[i])
		}
	}
	if c.MonitoredIPs() != 6 {
		t.Errorf("MonitoredIPs = %d, want 6 (no extra VMs for colocated role)", c.MonitoredIPs())
	}
	// Traffic reaches the colocated service's own port.
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	sawMetrics := false
	for _, r := range recs {
		if r.LocalPort == 9100 || r.RemotePort == 9100 {
			sawMetrics = true
			break
		}
	}
	if !sawMetrics {
		t.Error("no traffic on the colocated service port")
	}
	// Endpoint-facet ground truth distinguishes the two services.
	gte := c.GroundTruthEndpoints()
	if gte[graph.IPPortNode(web[0], 443)] != "web" || gte[graph.IPPortNode(web[0], 9100)] != "metrics" {
		t.Errorf("endpoint ground truth wrong: %v", gte)
	}
}

func TestColocatedValidation(t *testing.T) {
	if _, err := New(Spec{Name: "x", Roles: []RoleSpec{{Name: "a", ColocateWith: "nosuch"}}}); err == nil {
		t.Error("want error for unknown colocate target")
	}
	if _, err := New(Spec{Name: "x", Roles: []RoleSpec{
		{Name: "a", Count: 2},
		{Name: "b", ColocateWith: "a", Count: 2},
	}}); err == nil {
		t.Error("want error for colocated role with Count")
	}
}

func TestDiurnalModulation(t *testing.T) {
	s := Spec{
		Name: "diurnal", Seed: 6,
		Roles: []RoleSpec{
			{Name: "a", Count: 4, Port: 1000},
			{Name: "b", Count: 2, Port: 2000},
		},
		Links: []LinkSpec{{Src: "a", Dst: "b", FlowsPerMin: 50, Fanout: -1, FwdBytes: 500, RevBytes: 500, Diurnal: 0.9}},
	}
	countAt := func(hour int) int {
		c := mustCluster(t, s)
		day := time.Date(2024, 3, 1, hour, 0, 0, 0, time.UTC)
		recs, err := c.CollectHour(day)
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	noon, midnight := countAt(12), countAt(0)
	if float64(noon) < 3*float64(midnight) {
		t.Errorf("diurnal peak/trough = %d/%d, want strong contrast", noon, midnight)
	}
}
