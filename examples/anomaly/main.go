// Breach detection walkthrough: run the µserviceBench shopping site
// cleanly for several hours, then let an attacker loose — port scan,
// lateral movement, bulk exfiltration and a C2 beacon — and watch the
// dynamic communication graphs expose each stage.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"cloudgraph"
	"cloudgraph/internal/cluster"
	"cloudgraph/internal/summarize"
)

func main() {
	log.SetFlags(0)
	spec, err := cloudgraph.Preset("microservicebench", 0.2)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := cloudgraph.NewCluster(spec)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	// The engine produces windows; this walkthrough keeps every one.
	var windows []*cloudgraph.Graph
	engine := cloudgraph.NewEngine(cloudgraph.EngineConfig{Window: time.Hour, Consumers: []cloudgraph.ConsumerSpec{{
		Name: "windows",
		Fn:   func(_ uint64, g *cloudgraph.Graph) { windows = append(windows, g) },
	}}})

	// Four clean hours.
	if _, err := cl.Run(start, 4*60, engine); err != nil {
		log.Fatal(err)
	}

	// Hour five: the attacker, having breached the payment service,
	// works through the classic kill chain.
	h5 := start.Add(4 * time.Hour)
	c2 := netip.MustParseAddr("198.51.100.66")
	cl.AddAttack(cluster.PortScan{
		AttackerRole: "payment", AttackerIdx: 0, TargetRole: "redis",
		PortsPerMin: 30, Start: h5, Duration: 20 * time.Minute,
	})
	cl.AddAttack(cluster.LateralMovement{
		AttackerRole: "payment", AttackerIdx: 0, TargetRole: "redis",
		FlowsPerMin: 5, Bytes: 32 << 10, Start: h5.Add(20 * time.Minute), Duration: 20 * time.Minute,
	})
	cl.AddAttack(cluster.Exfiltration{
		SourceRole: "payment", SourceIdx: 0, Destination: c2,
		BytesPerMin: 120_000_000, Start: h5.Add(40 * time.Minute), Duration: 20 * time.Minute,
	})
	cl.AddAttack(cluster.Beacon{
		SourceRole: "payment", SourceIdx: 0, C2: c2, Period: 5 * time.Minute,
		Bytes: 400, Start: h5, Duration: time.Hour,
	})
	if _, err := cl.Run(h5, 60, engine); err != nil {
		log.Fatal(err)
	}

	engine.Flush()
	fmt.Printf("collected %d hourly graphs (%d records total)\n", len(windows), engine.Cost().Records)

	// Learn the policy on hour one; the attacker cannot tamper with the
	// telemetry that exposes it (§3.1).
	base, err := cloudgraph.LearnBaseline(windows[0], cloudgraph.SegmentOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nhour  violations  alerts  drift    anomalous")
	scores := summarize.ScoreWindows(windows, summarize.AnomalyOptions{Sigma: 3, MinHistory: 2})
	for i, g := range windows {
		rep := base.Monitor(g)
		fmt.Printf("%4d  %10d  %6d  %.4f   %v\n", i+1, len(rep.Violations), rep.Alerts, scores[i].Drift, scores[i].Anomalous)
	}

	// Zoom into the attack hour: what exactly fired?
	rep := base.Monitor(windows[len(windows)-1])
	fmt.Println("\nattack-hour evidence:")
	for _, cchange := range rep.Cohorts {
		status := "ALERT"
		if cchange.Suppressed {
			status = "suppressed (uniform cohort change)"
		}
		fmt.Printf("- segment pair %d-%d: %d new flows, %s\n",
			cchange.Pair.A, cchange.Pair.B, len(cchange.Violations), status)
	}
	d := cloudgraph.Summarize(windows[len(windows)-1])
	fmt.Println("\nexecutive summary of the attack hour:", d.Headline)
}
