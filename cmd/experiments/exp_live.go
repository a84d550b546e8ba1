package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/runner"
)

// expLive drives the online analysis plane offline: the same Runner
// implementations cloudgraphd executes on the consumer bus are
// replayed here over a recorded stream via Plane.Replay, so the table
// below is produced by the exact code path that answers `graphctl query`.
// A port scan injected mid-hour should surface in the summarize runner's
// drift and in policy churn pricing.
func expLive(e *env) {
	header("live", "Online analysis plane replayed over a recorded hour",
		"One code path: the figures below come from the same runners cloudgraphd serves over QUERY, driven through the versioned timeline.")

	// A fresh cluster, not the shared hourly cache: the injected attack
	// must not leak into experiments reusing the cached clean hour.
	spec, err := cluster.Preset("microservicebench", e.datasetScale("microservicebench"))
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	c.AddAttack(cluster.PortScan{
		AttackerRole: "frontend",
		TargetRole:   "redis",
		PortsPerMin:  40,
		Start:        e.start.Add(10 * time.Minute),
		Duration:     10 * time.Minute,
	})
	recs, err := c.CollectHour(e.start)
	if err != nil {
		log.Fatal(err)
	}

	p := runner.New(runner.Config{})
	windows := p.Replay(recs, runner.ReplayOptions{Window: 5 * time.Minute})
	fmt.Printf("\n%d five-minute windows analyzed by %v\n\n", len(windows), p.Runners())

	fmt.Println("| epoch | window start | segments | drift | anomalous | moved | ip-rule churn | tag churn |")
	fmt.Println("|------:|--------------|---------:|------:|-----------|------:|--------------:|----------:|")
	_, newest := p.Epochs("segment")
	for ep := uint64(1); ep <= newest; ep++ {
		var seg runner.SegmentResult
		var sum runner.SummarizeResult
		var pol runner.PolicyChurnResult
		mustQuery(p, "segment", ep, &seg)
		mustQuery(p, "summarize", ep, &sum)
		mustQuery(p, "policy", ep, &pol)
		fmt.Printf("| %d | %s | %d | %.4f | %v | %d | %d | %d |\n",
			ep, windows[ep-1].Start.UTC().Format("15:04"),
			seg.NumSegments, sum.Score.Drift, sum.Score.Anomalous,
			pol.Moved, pol.IPRuleUpdates, pol.TagUpdates)
	}

	var plan runner.CounterfactualResult
	mustQuery(p, "counterfactual", 0, &plan)
	fmt.Printf("\ncounterfactual @ latest: %d SKU upgrade candidate(s), %d proximity pair(s)\n",
		len(plan.Upgrades), len(plan.Proximity))

	oldest, newest := p.Timeline().Epochs()
	fmt.Printf("timeline: epochs %d..%d retained\n", oldest, newest)
	fmt.Println("\nShape check: policy churn prices the scan-driven re-segmentation while the attack runs (epochs 3-4), with per-IP rule updates well above tag updates; quiet epochs stay flat.")
}

// mustQuery unmarshals one retained plane result or dies.
func mustQuery(p *runner.Plane, name string, epoch uint64, out any) {
	_, raw, err := p.Query(name, epoch)
	if err != nil {
		log.Fatal(err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		log.Fatal(err)
	}
}
