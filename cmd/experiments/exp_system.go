package main

import (
	"fmt"
	"log"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/nicsim"
	"cloudgraph/internal/policy"
	"cloudgraph/internal/segment"
)

// expFig7 validates the Figure 7 collection path: per-flow state on the
// NIC, an agent pulling summaries, zero work on the customer's resources,
// and memory proportional to concurrent flows.
func expFig7(e *env) {
	header("fig7", "Zero-impact telemetry collection on the (simulated) smartNIC",
		"Connection summaries are recorded in NIC memory — a few counters per flow the cards already track — and a host agent periodically pulls them; memory and log size are proportional to concurrent flows.")

	// Memory proportionality: drive increasing concurrent-flow counts.
	fmt.Println("| concurrent flows | NIC telemetry memory | bytes/flow |")
	fmt.Println("|---|---|---|")
	for _, flows := range []int{100, 1_000, 10_000} {
		v := nicsim.NewVNIC(netip.MustParseAddr("10.0.0.1"), 4*time.Minute)
		remote := netip.MustParseAddr("203.0.113.1")
		for i := 0; i < flows; i++ {
			v.Observe(uint16(i%60000+1024), netip.AddrPortFrom(remote, uint16(i/60000+1)), 1, 1, 100, 100, e.start)
		}
		mem := v.MemoryFootprint()
		fmt.Printf("| %d | %d B | %d |\n", flows, mem, mem/flows)
	}

	// Data-path overhead: cost of the counter update itself.
	v := nicsim.NewVNIC(netip.MustParseAddr("10.0.0.1"), 4*time.Minute)
	remote := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.1"), 443)
	const updates = 2_000_000
	t := time.Now()
	for i := 0; i < updates; i++ {
		v.Observe(12345, remote, 1, 1, 1460, 60, e.start)
	}
	perUpdate := time.Since(t) / updates
	fmt.Printf("\n- per-packet-batch counter update: %v (software simulation of the 'few counters' the paper argues are negligible next to existing network-function processing)\n", perUpdate)

	// End-to-end: agents pull a full cluster's summaries.
	spec, _ := cluster.Preset("microservicebench", 0.2)
	c, err := cluster.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	count := nicsim.CollectorFunc(func(b []flowlog.Record) error { n += len(b); return nil })
	if _, err := c.Run(e.start, 10, count); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("- host agents forwarded %d summaries over 10 minutes from %d hosts; VMs executed zero collection work and cannot tamper with it (it lives below the guest)\n",
		n, len(c.Fabric().Hosts()))
	fmt.Println("\nShape check: memory scales linearly with concurrent flows at a fixed per-flow footprint; the data-path cost is a handful of nanoseconds per update.")
}

// expFig8 sizes the analytics system of Figure 8: can ~1000 VMs worth of
// telemetry be analyzed with a handful of VMs (≈0.5% surcharge)?
func expFig8(e *env) {
	header("fig8", "Analytics COGS: graph construction throughput vs the 0.5% surcharge bar",
		"Analyze roughly 1000 VMs worth of telemetry (1-minute summaries) using a handful of VMs worth of resources; graph generation is a group-by-aggregation that must run in realtime on a few machines.")
	spec, _ := cluster.Preset("k8spaas", e.datasetScale("k8spaas"))
	c, err := cluster.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := c.CollectHour(e.start)
	if err != nil {
		log.Fatal(err)
	}
	recsPerMin := float64(len(recs)) / 60
	fmt.Printf("- workload: %d monitored VMs emitting %.0f records/min (one hour = %d records)\n\n",
		c.MonitoredIPs(), recsPerMin, len(recs))

	// Parallelism comes from concurrent callers (analytics connections),
	// so drive each shard count with that many ingesting goroutines; the
	// COGS columns extrapolate from the engine's own cost meter.
	fmt.Println("| engine shards | wall time | records/sec | merge time | windows | cores for live stream | VMs (8-core) for 1000-VM fleet | surcharge |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	perVM := recsPerMin / float64(c.MonitoredIPs()) // records/min/VM
	workerCounts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, shards := range workerCounts {
		eng := core.NewEngine(core.Config{Window: time.Hour, Shards: shards})
		t := time.Now()
		var wg sync.WaitGroup
		const batch = 8192
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w * batch; i < len(recs); i += batch * shards {
					end := min(i+batch, len(recs))
					eng.Ingest(recs[i:end])
				}
			}(w)
		}
		wg.Wait()
		eng.Flush()
		wall := time.Since(t)
		report := eng.Cost()
		eng.Close()
		live1000 := perVM * 1000 // records/min for a 1000-VM fleet
		cores := report.CoresForLive(live1000)
		vms := cores / 8
		fmt.Printf("| %d | %v | %.0f | %v | %d | %.4f | %.2g | %.2g%% |\n",
			shards, wall.Round(time.Millisecond), float64(len(recs))/wall.Seconds(),
			report.Merge.Round(time.Millisecond), eng.Epoch(),
			cores, vms, report.SurchargePct(live1000, 1000, 8))
	}
	fmt.Println("\nShape check: realtime graph construction for a 1000-VM subscription needs a small fraction of one VM — far below the paper's 0.5% viability bar; with Config.Shards > 1 the engine sustains that rate across concurrent connections instead of serializing them on one lock.")
}

// expRules quantifies §2.1's rule explosion: unrolling µsegment policies
// to per-IP rules vs compiling to dynamic tags, against the ~1000-rule
// per-VM budget.
func expRules(e *env) {
	header("rules", "Policy compilation: per-IP rule explosion vs dynamic tags",
		"Clouds limit rules on the path in/out of each VM (~10³); naïvely unrolling reachability between µsegments into per-IP rules can explode; adding dynamic tags and matching on them is the proposed fix.")
	c, _, g := hourly(e, "k8spaas", e.datasetScale("k8spaas"), e.start)

	// Segmentation granularity is the operator's knob (the paper leaves
	// the ideal granularity open): sweep the Louvain resolution and show
	// how blast radius and rule tables trade off.
	fmt.Println("| resolution | segments | allowed pairs | mean blast radius | per-IP rules (max/VM) | tag rules (max/VM) | VMs over limit (IP) |")
	fmt.Println("|---|---|---|---|---|---|---|")
	var assign segment.Assignment
	var r *policy.Reachability
	for _, gamma := range []float64{1, 2, 4, 8} {
		a, err := segment.Run(segment.StrategyJaccardLouvain, g, segment.Options{Resolution: gamma})
		if err != nil {
			log.Fatal(err)
		}
		rr := policy.Learn(g, a)
		ip := rr.CompileIPRules(policy.DefaultRuleLimit)
		tags := rr.CompileTagRules(policy.DefaultRuleLimit)
		fmt.Printf("| %.0f | %d | %d | %.1f of %d | %d (%d) | %d (%d) | %d |\n",
			gamma, a.NumSegments(), len(rr.AllowedPairs()),
			rr.MeanBlastRadius(), len(a)-1,
			ip.Total, ip.Max, tags.Total, tags.Max, ip.OverLimit)
		if gamma == 4 {
			assign, r = a, rr
		}
	}
	ip := r.CompileIPRules(policy.DefaultRuleLimit)
	tags := r.CompileTagRules(policy.DefaultRuleLimit)
	ratio := float64(ip.Total) / float64(max(1, tags.Total))
	fmt.Printf("\n- at resolution 4, per-IP compilation needs **%.0fx** more rules than tags", ratio)
	if ip.OverLimit > 0 {
		fmt.Printf("; %d VMs blow the 1000-rule budget without tags", ip.OverLimit)
	}
	fmt.Println(".")
	// Churn: what one pod migration costs under each compilation —
	// "tags may also help reduce churn and lag when µsegment labels
	// change" (§2.1).
	var mover graph.Node
	for n, s := range assign {
		if s == 0 && c.Monitored(n.Addr) {
			mover = n
			break
		}
	}
	if mover != (graph.Node{}) && assign.NumSegments() > 1 {
		rep := r.ChurnOnMove(mover, 1)
		fmt.Printf("\n- label churn (one VM moves segments): **%d** per-VM table rewrites with per-IP rules vs **%d** updates with tags\n",
			rep.IPRuleUpdates, rep.TagUpdates)
	}
	fmt.Println("\nShape check: IP-rule counts scale with segment sizes (quadratic in fleet growth) and tags stay flat at the number of allowed peer segments; one segment move rewrites hundreds of peer tables without tags and O(1) with them.")
}
