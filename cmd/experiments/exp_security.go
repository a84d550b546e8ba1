package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/nicsim"
	"cloudgraph/internal/policy"
	"cloudgraph/internal/segment"
	"cloudgraph/internal/summarize"
)

// expHOP validates the higher-order policies of §2.1: similarity-based
// policies avoid the code-change false positive, proportionality-based
// policies separate flash crowds from unilateral surges.
func expHOP(e *env) {
	header("hop", "Higher-order policies: similarity and proportionality",
		"A code change that makes all VMs of a µsegment speak to a new service should not alert (similarity); more backend traffic is fine when requests grew (proportionality) but not by itself.")

	// Scenario cluster: clients -> fe -> be -> db.
	spec := cluster.Spec{
		Name: "hop", Seed: 77,
		Roles: []cluster.RoleSpec{
			{Name: "fe", Count: 8, Port: 443},
			{Name: "be", Count: 6, Port: 9000},
			{Name: "db", Count: 3, Port: 5432},
			{Name: "audit", Count: 2, Port: 7000}, // new dependency after "code change"
			{Name: "client", Count: 40, External: true},
		},
		Links: []cluster.LinkSpec{
			{Src: "client", Dst: "fe", FlowsPerMin: 10, Fanout: 2, FwdBytes: 600, RevBytes: 9000},
			{Src: "fe", Dst: "be", FlowsPerMin: 40, Fanout: -1, FwdBytes: 1200, RevBytes: 2500},
			{Src: "be", Dst: "db", FlowsPerMin: 20, Fanout: -1, FwdBytes: 900, RevBytes: 4000},
			{Src: "audit", Dst: "db", FlowsPerMin: 1, Fanout: -1, FwdBytes: 300, RevBytes: 300},
		},
	}
	base := mustHour(e, spec, nil)
	c, err := cluster.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	truthAssign := groundTruthAssignment(c)
	reach := policy.Learn(base, truthAssign)

	// Scenario 1 — code change: every fe starts calling audit.
	s1 := spec
	s1.Links = append(s1.Links, cluster.LinkSpec{Src: "fe", Dst: "audit", FlowsPerMin: 8, Fanout: -1, FwdBytes: 500, RevBytes: 700})
	next1 := mustHour(e, s1, nil)
	changes := policy.SimilarityPolicy{R: reach}.Evaluate(next1)
	fmt.Println("**Scenario 1 — code change (all frontends call a new audit service):**")
	fmt.Println("| segment pair | cohort fraction | suppressed? | raw violations |")
	fmt.Println("|---|---|---|---|")
	for _, ch := range changes {
		fmt.Printf("| %d-%d | %.2f | %v | %d |\n", ch.Pair.A, ch.Pair.B, ch.Fraction, ch.Suppressed, len(ch.Violations))
	}

	// Scenario 2 — one compromised fe reaches the db directly.
	s2 := spec
	next2cluster, err := cluster.New(s2)
	if err != nil {
		log.Fatal(err)
	}
	next2cluster.AddAttack(cluster.LateralMovement{
		AttackerRole: "fe", AttackerIdx: 0, TargetRole: "db",
		FlowsPerMin: 6, Bytes: 50_000, Start: e.start, Duration: time.Hour,
	})
	recs2, err := next2cluster.CollectHour(e.start)
	if err != nil {
		log.Fatal(err)
	}
	next2 := graph.Build(recs2, graph.BuilderOptions{Facet: graph.FacetIP})
	changes2 := policy.SimilarityPolicy{R: reach}.Evaluate(next2)
	fmt.Println("\n**Scenario 2 — single breached frontend reaches the database:**")
	flagged := 0
	for _, ch := range changes2 {
		if !ch.Suppressed {
			flagged += len(ch.Violations)
		}
		fmt.Printf("- pair %d-%d: fraction %.2f, suppressed=%v, %d violations\n", ch.Pair.A, ch.Pair.B, ch.Fraction, ch.Suppressed, len(ch.Violations))
	}
	fmt.Printf("- alerts raised: %d (the deviant is *not* excused)\n", flagged)

	// Scenario 3 — flash crowd: client load x4 (everything scales).
	s3 := spec
	for i := range s3.Links {
		if s3.Links[i].Src == "client" {
			s3.Links[i].FlowsPerMin *= 4
		}
		if s3.Links[i].Src == "fe" && s3.Links[i].Dst == "be" {
			s3.Links[i].FlowsPerMin *= 4
		}
		if s3.Links[i].Src == "be" {
			s3.Links[i].FlowsPerMin *= 4
		}
	}
	next3 := mustHour(e, s3, nil)
	growth3 := policy.ProportionalityPolicy{R: reach}.Evaluate(base, next3)
	flagged3 := flaggedPairs(growth3)
	fmt.Printf("\n**Scenario 3 — flash crowd (all load x4):** %d pair(s) flagged (want 0; growth is proportional)\n", flagged3)

	// Scenario 4 — exfil-like: only be->db surges x20.
	s4 := spec
	for i := range s4.Links {
		if s4.Links[i].Src == "be" && s4.Links[i].Dst == "db" {
			s4.Links[i].FlowsPerMin *= 20
		}
	}
	next4 := mustHour(e, s4, nil)
	growth4 := policy.ProportionalityPolicy{R: reach}.Evaluate(base, next4)
	flagged4 := flaggedPairs(growth4)
	fmt.Printf("\n**Scenario 4 — unilateral surge (be->db x20, requests flat):** %d pair(s) flagged (want ≥1: the be-db pair)\n", flagged4)
	for _, pg := range growth4 {
		if pg.Flagged {
			fmt.Printf("- flagged pair %d-%d: growth %.1fx vs segment median %.1fx\n", pg.Pair.A, pg.Pair.B, pg.Growth, pg.MedianGrowth)
		}
	}
	fmt.Println("\nShape check: similarity suppresses the uniform change but not the lone deviant; proportionality passes the flash crowd and flags the unilateral surge — exactly the §2.1 examples.")
}

func flaggedPairs(gs []policy.PairGrowth) int {
	n := 0
	for _, pg := range gs {
		if pg.Flagged {
			n++
		}
	}
	return n
}

// mustHour builds the hourly IP graph of a spec.
func mustHour(e *env, spec cluster.Spec, mutate func(*cluster.Cluster)) *graph.Graph {
	c, err := cluster.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	if mutate != nil {
		mutate(c)
	}
	recs, err := c.CollectHour(e.start)
	if err != nil {
		log.Fatal(err)
	}
	return graph.Build(recs, graph.BuilderOptions{Facet: graph.FacetIP})
}

// groundTruthAssignment converts role labels into a segmentation.
func groundTruthAssignment(c *cluster.Cluster) segment.Assignment {
	assign := segment.Assignment{}
	ids := map[string]int{}
	for node, role := range c.GroundTruth() {
		id, ok := ids[role]
		if !ok {
			id = len(ids)
			ids[role] = id
		}
		assign[node] = id
	}
	return assign
}

// expAttacks runs the µserviceBench breach-and-attack-simulation
// substitution: inject each attack kind and measure what the learned
// policies and the anomaly detector see.
func expAttacks(e *env) {
	header("attacks", "Attack detection on µserviceBench (Infection-Monkey substitution)",
		"The paper injects a wide range of attacks into µserviceBench; telemetry stays trustworthy during breaches because VMs cannot tamper with NIC-level collection.")
	const scale = 0.25
	baseSpec, _ := cluster.Preset("microservicebench", scale)

	type scenario struct {
		name string
		add  func(c *cluster.Cluster, at time.Time)
	}
	c2 := netip.MustParseAddr("198.51.100.66")
	scenarios := []scenario{
		{"port-scan", func(c *cluster.Cluster, at time.Time) {
			c.AddAttack(cluster.PortScan{AttackerRole: "frontend", AttackerIdx: 0, TargetRole: "payment", PortsPerMin: 40, Start: at, Duration: time.Hour})
		}},
		{"lateral-movement", func(c *cluster.Cluster, at time.Time) {
			c.AddAttack(cluster.LateralMovement{AttackerRole: "loadgen", AttackerIdx: 0, TargetRole: "redis", FlowsPerMin: 8, Bytes: 16_384, Start: at, Duration: time.Hour})
		}},
		{"exfiltration", func(c *cluster.Cluster, at time.Time) {
			c.AddAttack(cluster.Exfiltration{SourceRole: "payment", SourceIdx: 0, Destination: c2, BytesPerMin: 200_000_000, Start: at, Duration: time.Hour})
		}},
		{"c2-beacon", func(c *cluster.Cluster, at time.Time) {
			c.AddAttack(cluster.Beacon{SourceRole: "currency", SourceIdx: 0, C2: c2, Period: 5 * time.Minute, Bytes: 512, Start: at, Duration: time.Hour})
		}},
	}

	fmt.Println("| attack | reachability violations | alerts after similarity filter | drift vs clean hours | anomaly flagged | port-fanout suspects |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, sc := range scenarios {
		c, err := cluster.New(baseSpec)
		if err != nil {
			log.Fatal(err)
		}
		var windows []*graph.Graph
		engine := windowEngine(core.Config{Window: time.Hour}, &windows)
		// Tee raw records per hour: the port-fanout detector consumes the
		// IP-port information the collapsed IP graph discards (§2.1:
		// "segmenting IP-port graphs may be more useful").
		var baseRecs, attackRecs []flowlog.Record
		tee := nicsim.CollectorFunc(func(b []flowlog.Record) error {
			if len(b) > 0 {
				switch hr := b[0].Time.Sub(e.start) / time.Hour; {
				case hr == 0:
					baseRecs = append(baseRecs, b...)
				case hr == 5:
					attackRecs = append(attackRecs, b...)
				}
			}
			return engine.Collect(b)
		})
		// Five clean hours to learn + baseline drift, then the attack hour.
		if _, err := c.Run(e.start, 5*60, tee); err != nil {
			log.Fatal(err)
		}
		attackStart := e.start.Add(5 * time.Hour)
		sc.add(c, attackStart)
		if _, err := c.Run(attackStart, 60, tee); err != nil {
			log.Fatal(err)
		}
		engine.Flush()
		engine.Close()
		if len(windows) != 6 {
			log.Fatalf("%s: windows = %d", sc.name, len(windows))
		}
		// Fine-grained segmentation (resolution 4) so the learned policy
		// is tight enough for reachability violations to mean something.
		base, err := policy.LearnBaseline(segment.StrategyJaccardLouvain, windows[0], segment.Options{Resolution: 4})
		if err != nil {
			log.Fatal(err)
		}
		rep := base.Monitor(windows[5])
		scores := summarize.ScoreWindows(windows, summarize.AnomalyOptions{Sigma: 3, MinHistory: 2})
		suspects := summarize.DetectScans(baseRecs, attackRecs, 20)
		fmt.Printf("| %s | %d | %d | %.3f | %v | %d |\n",
			sc.name, len(rep.Violations), rep.Alerts, scores[5].Drift, scores[5].Anomalous, len(suspects))
	}
	fmt.Println("\nShape check: every attack class leaves a telemetry trace, each in the detector suited to its facet — the scan in the port-fanout detector (the IP-graph is too dense to show it), exfiltration and the C2 beacon as reachability alerts to an unknown endpoint (exfil also dominating drift), and lateral movement to an in-cluster service as drift. Low-and-slow beacons evade volume anomaly alone, which is why the paper's reachability policies matter.")
}
