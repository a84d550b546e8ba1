// Microsegmentation walkthrough: compare every auto-segmentation strategy
// from the paper on the same graph (Figures 1 and 3), then show what the
// winning segmentation buys operationally — blast radius, rule tables with
// and without tags, and live violation monitoring across hours.
package main

import (
	"fmt"
	"log"
	"time"

	"cloudgraph"
)

func main() {
	log.SetFlags(0)
	spec, err := cloudgraph.Preset("k8spaas", 0.3)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := cloudgraph.NewCluster(spec)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

	// Two hours of traffic through the streaming engine: hour one to
	// learn, hour two to monitor.
	var windows []*cloudgraph.Graph
	engine := cloudgraph.NewEngine(cloudgraph.EngineConfig{Window: time.Hour, Consumers: []cloudgraph.ConsumerSpec{{
		Name: "windows",
		Fn:   func(_ uint64, g *cloudgraph.Graph) { windows = append(windows, g) },
	}}})
	if _, err := cl.Run(start, 120, engine); err != nil {
		log.Fatal(err)
	}
	engine.Flush()
	baseline, nextHour := windows[0], windows[1]

	// Figure 1 vs Figure 3: same graph, three strategies, quality vs the
	// generator's ground-truth roles.
	truth := cl.GroundTruth()
	fmt.Println("strategy            segments   ARI     NMI     purity")
	for _, s := range []cloudgraph.Strategy{
		cloudgraph.JaccardLouvain, cloudgraph.ModularityConn, cloudgraph.ModularityBytes,
	} {
		assign, err := cloudgraph.SegmentWith(s, baseline, cloudgraph.SegmentOptions{})
		if err != nil {
			log.Fatal(err)
		}
		q := cloudgraph.ScoreSegmentation(assign, truth)
		fmt.Printf("%-19s %8d   %.3f   %.3f   %.3f\n", s, assign.NumSegments(), q.ARI, q.NMI, q.Purity)
	}

	// Operationalize the paper's method.
	assign, err := cloudgraph.Segment(baseline, cloudgraph.SegmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	pol := cloudgraph.LearnPolicy(baseline, assign)
	fmt.Printf("\nblast radius: %.1f mean reachable resources after a breach (unsegmented: %d)\n",
		pol.MeanBlastRadius(), len(assign)-1)
	ip := pol.CompileIPRules(1000)
	tags := pol.CompileTagRules(1000)
	fmt.Printf("rule tables:  per-IP total=%d max/VM=%d over-limit=%d | tags total=%d max/VM=%d\n",
		ip.Total, ip.Max, ip.OverLimit, tags.Total, tags.Max)

	// Monitor the next hour against the learned policy.
	base, err := cloudgraph.LearnBaseline(baseline, cloudgraph.SegmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rep := base.Monitor(nextHour)
	fmt.Printf("hour 2 check: %d raw violations, %d alerts after similarity filtering\n",
		len(rep.Violations), rep.Alerts)
	flagged := 0
	for _, pg := range rep.Growth {
		if pg.Flagged {
			flagged++
		}
	}
	fmt.Printf("proportionality: %d segment pair(s) with anomalous growth\n", flagged)
}
