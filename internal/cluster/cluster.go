// Package cluster generates synthetic cloud-subscription workloads that
// stand in for the four production/testbed clusters of Table 1 in the paper
// (Portal, µserviceBench, K8s PaaS, KQuery). Each cluster is a set of roles
// — redundant groups of VMs running the same code — plus a set of
// communication links between roles. Traffic is driven minute by minute
// through the nicsim fabric, so the telemetry the rest of the system
// consumes goes through the same collection path as Figure 7.
//
// Because the generator knows each VM's role, it provides the ground truth
// that the paper could only approximate with developer interviews, enabling
// quantitative scoring of segmentation strategies (§2.1).
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/nicsim"
)

// RoleSpec declares one role: Count identical instances running the same
// code. External roles model endpoints outside the subscription (internet
// clients, SaaS dependencies); they are not monitored, so only the internal
// peer's NIC logs their flows.
type RoleSpec struct {
	Name     string
	Count    int
	External bool
	// Port is the well-known port instances of this role serve on; 0
	// assigns a deterministic port derived from the role name.
	Port uint16
	// ActiveFraction is the fraction of instances that originate traffic
	// in a given minute (1.0 if zero). Client pools with churn — e.g.
	// Portal's internet users — set this below 1.
	ActiveFraction float64
	// RateSkew makes instances heterogeneous: each instance's outbound
	// flow rates are multiplied by a log-normal factor with this sigma
	// (mean preserved). Real fleets concentrate traffic on a few hot
	// nodes (Figure 6); zero means homogeneous instances.
	RateSkew float64
	// ColocateWith places this role's service on the instances of the
	// named (earlier-declared) role instead of allocating its own VMs —
	// one VM running multiple services, the §2.1 "resources may have
	// multiple roles" concern. Count must be zero; the role serves on
	// its own Port.
	ColocateWith string
}

// LinkSpec declares traffic from every instance of Src to instances of Dst.
type LinkSpec struct {
	Src, Dst string
	// FlowsPerMin is the mean number of flows each active Src instance
	// opens per minute (Poisson).
	FlowsPerMin float64
	// Fanout is the size of the stable peer set each Src instance talks
	// to (flows pick peers uniformly from that set). 0 means one peer;
	// negative means all Dst instances.
	Fanout int
	// FwdBytes / RevBytes are mean request/response sizes per flow;
	// actual sizes are log-normal around the mean.
	FwdBytes, RevBytes float64
	// Persistent reuses one long-lived flow (stable ephemeral port) per
	// (src, dst) pair instead of a fresh flow each time — e.g. etcd
	// watch channels or storage sessions.
	Persistent bool
	// Diurnal modulates the flow rate over the day with amplitude in
	// [0, 1): rate × (1 + Diurnal·sin(2π·(hour−6)/24)), peaking at noon
	// and bottoming at midnight. It makes multi-hour windows genuinely
	// dynamic ("what changed?" analyses, Figure 5's shifting bands).
	Diurnal float64
}

// MeshSpec declares low-rate all-to-all style traffic among the union of
// instances of several roles — node-level plumbing such as kubelet health
// checks or overlay gossip that densifies small clusters' IP-graphs.
type MeshSpec struct {
	Roles       []string
	FlowsPerMin float64
	Fanout      int
	Port        uint16
	FwdBytes    float64
	RevBytes    float64
}

// Spec declares a synthetic cluster.
type Spec struct {
	Name string
	Seed int64
	// InternalNet and ExternalNet are carved for instance addresses.
	InternalNet netip.Prefix
	ExternalNet netip.Prefix
	Roles       []RoleSpec
	Links       []LinkSpec
	Meshes      []MeshSpec
	// CollapseThreshold is the dataset's heavy-hitter collapse setting
	// used when reproducing Table 1 (0 disables collapsing).
	CollapseThreshold float64
	// VMsPerHost controls fabric packing; 0 defaults to 16.
	VMsPerHost int
}

// instance is one VM or external endpoint.
type instance struct {
	addr netip.Addr
	role *role
	// rateMul skews this instance's outbound flow rates (RateSkew).
	rateMul float64
	// nextEphemeral cycles the ephemeral port range per instance.
	nextEphemeral uint16
	// vnic is the fabric VNIC at addr, resolved once by New (nil when
	// addr is not monitored).
	vnic *nicsim.VNIC
}

// role is the materialized form of a RoleSpec.
type role struct {
	RoleSpec
	instances []*instance
}

// link is the materialized form of a LinkSpec: per-source stable peer sets.
type link struct {
	LinkSpec
	src, dst *role
	// peers[i] is the index set of dst instances src instance i uses.
	peers [][]int
	// persistentPort[i*len(dst)+j] caches the ephemeral port of the
	// long-lived flow between src i and dst j (0 = not yet opened).
	persistentPort []uint16
	// fwd and rev draw the per-flow request and response sizes.
	fwd, rev sizeDist
}

// Cluster is a runnable synthetic workload.
type Cluster struct {
	spec    Spec
	rng     *rand.Rand
	roles   map[string]*role
	byAddr  map[netip.Addr]*instance
	links   []*link
	fabric  *nicsim.Fabric
	attacks []Attack
	// attackKeys records the flow keys the attack injector created, so
	// experiments can label records as malicious ground truth.
	attackKeys map[flowlog.FlowKey]bool
}

// New materializes a spec: allocates addresses, builds stable peer sets and
// places monitored VMs on the fabric. It fails on inconsistent specs
// (unknown roles in links, empty roles, address exhaustion).
func New(spec Spec) (*Cluster, error) {
	if len(spec.Roles) == 0 {
		return nil, fmt.Errorf("cluster %q: no roles", spec.Name)
	}
	if !spec.InternalNet.IsValid() {
		spec.InternalNet = netip.MustParsePrefix("10.10.0.0/16")
	}
	if !spec.ExternalNet.IsValid() {
		spec.ExternalNet = netip.MustParsePrefix("198.18.0.0/15")
	}
	c := &Cluster{
		spec:       spec,
		rng:        rand.New(rand.NewSource(spec.Seed)),
		roles:      make(map[string]*role, len(spec.Roles)),
		byAddr:     make(map[netip.Addr]*instance),
		fabric:     nicsim.NewFabric(spec.VMsPerHost, 4*time.Minute),
		attackKeys: make(map[flowlog.FlowKey]bool),
	}
	intNext, extNext := spec.InternalNet.Addr(), spec.ExternalNet.Addr()
	var all []*instance
	for i := range spec.Roles {
		rs := spec.Roles[i]
		if _, dup := c.roles[rs.Name]; dup {
			return nil, fmt.Errorf("role %q: duplicate", rs.Name)
		}
		if rs.Port == 0 {
			rs.Port = derivePort(rs.Name)
		}
		if rs.ActiveFraction <= 0 || rs.ActiveFraction > 1 {
			rs.ActiveFraction = 1
		}
		if rs.ColocateWith != "" {
			host, ok := c.roles[rs.ColocateWith]
			if !ok {
				return nil, fmt.Errorf("role %q: colocate target %q not declared earlier", rs.Name, rs.ColocateWith)
			}
			if rs.Count != 0 {
				return nil, fmt.Errorf("role %q: colocated roles must not set Count", rs.Name)
			}
			r := &role{RoleSpec: rs, instances: host.instances}
			c.roles[rs.Name] = r
			continue
		}
		if rs.Count <= 0 {
			return nil, fmt.Errorf("role %q: count must be positive", rs.Name)
		}
		r := &role{RoleSpec: rs}
		for j := 0; j < rs.Count; j++ {
			var addr netip.Addr
			if rs.External {
				extNext = extNext.Next()
				addr = extNext
				if !spec.ExternalNet.Contains(addr) {
					return nil, fmt.Errorf("external network %v exhausted", spec.ExternalNet)
				}
			} else {
				intNext = intNext.Next()
				addr = intNext
				if !spec.InternalNet.Contains(addr) {
					return nil, fmt.Errorf("internal network %v exhausted", spec.InternalNet)
				}
			}
			inst := &instance{addr: addr, role: r, rateMul: 1, nextEphemeral: 32768}
			if rs.RateSkew > 0 {
				sigma := rs.RateSkew
				inst.rateMul = math.Exp(sigma*c.rng.NormFloat64() - sigma*sigma/2)
			}
			r.instances = append(r.instances, inst)
			all = append(all, inst)
			c.byAddr[addr] = inst
			if !rs.External {
				c.fabric.AddVM(addr)
			}
		}
		c.roles[rs.Name] = r
	}
	for _, inst := range all {
		inst.vnic = c.fabric.VNIC(inst.addr)
	}
	for i := range spec.Links {
		ls := spec.Links[i]
		src, ok := c.roles[ls.Src]
		if !ok {
			return nil, fmt.Errorf("link %d: unknown src role %q", i, ls.Src)
		}
		dst, ok := c.roles[ls.Dst]
		if !ok {
			return nil, fmt.Errorf("link %d: unknown dst role %q", i, ls.Dst)
		}
		l := &link{LinkSpec: ls, src: src, dst: dst, fwd: newSizeDist(ls.FwdBytes), rev: newSizeDist(ls.RevBytes)}
		l.peers = make([][]int, len(src.instances))
		for s := range src.instances {
			l.peers[s] = c.pickPeers(len(dst.instances), ls.Fanout)
		}
		if ls.Persistent {
			l.persistentPort = make([]uint16, len(src.instances)*len(dst.instances))
		}
		c.links = append(c.links, l)
	}
	for i := range spec.Meshes {
		ms := spec.Meshes[i]
		var members []*instance
		for _, name := range ms.Roles {
			r, ok := c.roles[name]
			if !ok {
				return nil, fmt.Errorf("mesh %d: unknown role %q", i, name)
			}
			members = append(members, r.instances...)
		}
		if len(members) < 2 {
			return nil, fmt.Errorf("mesh %d: needs at least two instances", i)
		}
		port := ms.Port
		if port == 0 {
			port = 10250
		}
		union := &role{
			RoleSpec:  RoleSpec{Name: "(mesh)", Port: port, ActiveFraction: 1},
			instances: members,
		}
		l := &link{
			LinkSpec: LinkSpec{
				FlowsPerMin: ms.FlowsPerMin,
				Fanout:      ms.Fanout,
				FwdBytes:    ms.FwdBytes,
				RevBytes:    ms.RevBytes,
			},
			src: union, dst: union,
			fwd: newSizeDist(ms.FwdBytes), rev: newSizeDist(ms.RevBytes),
		}
		l.peers = make([][]int, len(members))
		for s := range members {
			l.peers[s] = c.pickPeersExcluding(len(members), ms.Fanout, s)
		}
		c.links = append(c.links, l)
	}
	return c, nil
}

// pickPeersExcluding is pickPeers but never includes self, for meshes whose
// source and destination pools coincide.
func (c *Cluster) pickPeersExcluding(n, fanout, self int) []int {
	if fanout <= 0 || fanout >= n-1 {
		all := make([]int, 0, n-1)
		for i := 0; i < n; i++ {
			if i != self {
				all = append(all, i)
			}
		}
		return all
	}
	perm := c.rng.Perm(n)
	peers := make([]int, 0, fanout)
	for _, p := range perm {
		if p == self {
			continue
		}
		peers = append(peers, p)
		if len(peers) == fanout {
			break
		}
	}
	return peers
}

// pickPeers returns a stable random subset of [0, n) of size fanout
// (fanout<0 = all, 0 = 1).
func (c *Cluster) pickPeers(n, fanout int) []int {
	if fanout < 0 || fanout >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if fanout == 0 {
		fanout = 1
	}
	return c.rng.Perm(n)[:fanout]
}

// derivePort maps a role name to a deterministic service port in
// [1024, 32768).
func derivePort(name string) uint16 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return uint16(1024 + h%(32768-1024))
}

// Spec returns the cluster's spec.
func (c *Cluster) Spec() Spec { return c.spec }

// Fabric exposes the nicsim fabric carrying the cluster's telemetry.
func (c *Cluster) Fabric() *nicsim.Fabric { return c.fabric }

// MonitoredIPs returns the number of monitored (internal) VMs: the "#IPs
// mon." column of Table 1. Co-located services share a VM and count once.
func (c *Cluster) MonitoredIPs() int {
	n := 0
	for _, inst := range c.byAddr {
		if !inst.role.External {
			n++
		}
	}
	return n
}

// Monitored reports whether addr belongs to a monitored VM.
func (c *Cluster) Monitored(addr netip.Addr) bool {
	inst, ok := c.byAddr[addr]
	return ok && !inst.role.External
}

// GroundTruth returns the true role label of every monitored VM as IP-facet
// graph nodes — the reference segmentation that quality metrics score
// against. A VM hosting co-located services carries its primary role's
// label (at the IP facet the services are indistinguishable anyway; see
// GroundTruthEndpoints).
func (c *Cluster) GroundTruth() map[graph.Node]string {
	gt := make(map[graph.Node]string)
	for addr, inst := range c.byAddr {
		if !inst.role.External {
			gt[graph.IPNode(addr)] = inst.role.Name
		}
	}
	return gt
}

// GroundTruthEndpoints labels service endpoints at the endpoint facet:
// each role (including co-located ones) contributes {addr, port} nodes.
// This is the reference for §2.1's multi-role concern — endpoints of two
// services on the same VM carry different labels here.
func (c *Cluster) GroundTruthEndpoints() map[graph.Node]string {
	gt := make(map[graph.Node]string)
	for _, r := range c.roles {
		if r.External {
			continue
		}
		for _, inst := range r.instances {
			gt[graph.IPPortNode(inst.addr, r.Port)] = r.Name
		}
	}
	return gt
}

// Addresses returns the instance addresses of a role (nil if unknown).
func (c *Cluster) Addresses(roleName string) []netip.Addr {
	r := c.roles[roleName]
	if r == nil {
		return nil
	}
	addrs := make([]netip.Addr, len(r.instances))
	for i, inst := range r.instances {
		addrs[i] = inst.addr
	}
	return addrs
}

// ephemeral returns the next ephemeral source port for inst.
func (inst *instance) ephemeral() uint16 {
	p := inst.nextEphemeral
	inst.nextEphemeral++
	if inst.nextEphemeral < 32768 { // wrapped past 65535
		inst.nextEphemeral = 32768
	}
	return p
}

// Tick generates one minute of traffic starting at t into the fabric. Call
// fabric.PullAll (or Run) afterwards to obtain the connection summaries.
func (c *Cluster) Tick(t time.Time) {
	for _, l := range c.links {
		c.tickLink(l, t)
	}
	for _, a := range c.attacks {
		a.Inject(c, t)
	}
}

func (c *Cluster) tickLink(l *link, t time.Time) {
	nDst := len(l.dst.instances)
	if nDst == 0 {
		return
	}
	diurnal := 1.0
	if l.Diurnal > 0 {
		hour := float64(t.Hour()) + float64(t.Minute())/60
		diurnal = 1 + l.Diurnal*math.Sin(2*math.Pi*(hour-6)/24)
	}
	for si, src := range l.src.instances {
		if l.src.ActiveFraction < 1 && c.rng.Float64() >= l.src.ActiveFraction {
			continue
		}
		flows := c.poisson(l.FlowsPerMin * src.rateMul * diurnal)
		for f := 0; f < flows; f++ {
			peerSet := l.peers[si]
			di := peerSet[c.rng.Intn(len(peerSet))]
			dst := l.dst.instances[di]
			var sport uint16
			if l.Persistent {
				idx := si*nDst + di
				if l.persistentPort[idx] == 0 {
					l.persistentPort[idx] = src.ephemeral()
				}
				sport = l.persistentPort[idx]
			} else {
				sport = src.ephemeral()
			}
			fwdBytes := c.lognormal(l.fwd)
			revBytes := c.lognormal(l.rev)
			nicsim.ObservePair(src.vnic, dst.vnic,
				netip.AddrPortFrom(src.addr, sport),
				netip.AddrPortFrom(dst.addr, l.dst.Port),
				packetsFor(fwdBytes), packetsFor(revBytes),
				fwdBytes, revBytes, t,
			)
		}
	}
}

// poisson samples a Poisson variate with the given mean, switching to a
// normal approximation for large means.
func (c *Cluster) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*c.rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= c.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// sizeSigma is the log-space σ of the flow size distributions.
const sizeSigma = 0.5

// sizeDist is a log-normal flow size distribution with a given mean,
// floored at 64 bytes; a non-positive mean always draws 0. Its log-space
// location mu is computed once, when the link is built.
type sizeDist struct {
	mu   float64
	zero bool
}

func newSizeDist(mean float64) sizeDist {
	if mean <= 0 {
		return sizeDist{zero: true}
	}
	return sizeDist{mu: math.Log(mean) - sizeSigma*sizeSigma/2}
}

// lognormal samples d; a zero distribution draws no random number.
func (c *Cluster) lognormal(d sizeDist) uint64 {
	if d.zero {
		return 0
	}
	v := math.Exp(d.mu + sizeSigma*c.rng.NormFloat64())
	if v < 64 {
		v = 64
	}
	return uint64(v)
}

// packetsFor models the packet count carrying n bytes (1460-byte MSS, at
// least one packet for any nonzero transfer).
func packetsFor(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return (n + 1459) / 1460
}

// AddAttack registers an attack to be injected on every Tick.
func (c *Cluster) AddAttack(a Attack) { c.attacks = append(c.attacks, a) }

// observeAttack routes attack traffic into the fabric and records its flow
// key as malicious ground truth.
func (c *Cluster) observeAttack(src, dst netip.AddrPort, fwdPkts, revPkts, fwdBytes, revBytes uint64, t time.Time) {
	c.attackKeys[flowlog.Record{LocalIP: src.Addr(), LocalPort: src.Port(), RemoteIP: dst.Addr(), RemotePort: dst.Port()}.Key()] = true
	c.fabric.ObserveFlow(src, dst, fwdPkts, revPkts, fwdBytes, revBytes, t)
}

// IsAttackRecord reports whether a record stems from injected attack
// traffic — the labelled ground truth for detection and enforcement
// experiments.
func (c *Cluster) IsAttackRecord(r flowlog.Record) bool {
	return c.attackKeys[r.Key()]
}

// Run drives the cluster for the given number of one-minute intervals
// starting at start, pulling host agents after each interval and forwarding
// summaries to collect. It returns the total records forwarded.
func (c *Cluster) Run(start time.Time, intervals int, collect nicsim.Collector) (int, error) {
	total := 0
	for i := 0; i < intervals; i++ {
		t := start.Add(time.Duration(i) * time.Minute)
		c.Tick(t)
		n, err := c.fabric.PullAll(t, collect)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// CollectHour runs one hour of the cluster and returns all records — the
// unit the paper's hourly graphs are built from.
func (c *Cluster) CollectHour(start time.Time) ([]flowlog.Record, error) {
	var recs []flowlog.Record
	_, err := c.Run(start, 60, nicsim.CollectorFunc(func(batch []flowlog.Record) error {
		recs = append(recs, batch...)
		return nil
	}))
	return recs, err
}
