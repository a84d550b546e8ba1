// Analytics-service walkthrough (Figure 8): run the SaaS-style analytics
// endpoint in-process, stream two hours of telemetry to it over TCP exactly
// as host agents would, and drive the operator workflow through the wire
// protocol: STATS for the counts, then QUERY for every analysis the live
// plane runs — segmentation, summary, capacity plan and policy churn at the
// latest epoch, and the summary's drift score at every epoch.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"cloudgraph"
	"cloudgraph/internal/analytics"
	"cloudgraph/internal/core"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/runner"
)

func main() {
	log.SetFlags(0)

	// Start the service on an ephemeral port: one realm manager whose
	// default tenant runs the live analysis plane, as cloudgraphd does.
	m, err := realm.NewManager(realm.Config{Engine: core.Config{Window: time.Hour}, Live: true})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	srv, err := analytics.Serve("127.0.0.1:0", m, analytics.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("analytics service listening on", srv.Addr())

	// A telemetry source: the µserviceBench cluster.
	spec, err := cloudgraph.Preset("microservicebench", 0.15)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := cloudgraph.NewCluster(spec)
	if err != nil {
		log.Fatal(err)
	}

	client, err := analytics.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Stream two hours of summaries in agent-sized batches.
	start := time.Date(2024, 3, 1, 8, 0, 0, 0, time.UTC)
	for h := 0; h < 2; h++ {
		recs, err := cl.CollectHour(start.Add(time.Duration(h) * time.Hour))
		if err != nil {
			log.Fatal(err)
		}
		const batch = 8192
		for i := 0; i < len(recs); i += batch {
			end := i + batch
			if end > len(recs) {
				end = len(recs)
			}
			if err := client.Ingest(recs[i:end]); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("hour %d: streamed %d records\n", h+1, len(recs))
	}
	if _, err := client.Flush(); err != nil {
		log.Fatal(err)
	}

	// Operator workflow over the protocol.
	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server state: %d records across %d windows (%.0f rec/s ingest)\n",
		stats.Records, stats.Windows, stats.RecordsPerSec)

	for _, r := range runner.DefaultRunners() {
		res, err := client.Query(r.Name(), 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("QUERY %s latest (epoch %d): %s\n", res.Analysis, res.Epoch, brief(res))
	}
	for epoch := uint64(1); epoch <= uint64(stats.Windows); epoch++ {
		res, err := client.Query("summarize", epoch)
		if err != nil {
			log.Fatal(err)
		}
		var sum runner.SummarizeResult
		if err := json.Unmarshal(res.Result, &sum); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: drift %.3f (anomalous=%v)\n", epoch, sum.Score.Drift, sum.Score.Anomalous)
	}
}

// brief renders one QUERY answer as a line of its headline numbers.
func brief(res analytics.QueryResult) string {
	var err error
	var out string
	switch res.Analysis {
	case "segment":
		var r runner.SegmentResult
		err = json.Unmarshal(res.Result, &r)
		out = fmt.Sprintf("%d µsegments", r.NumSegments)
	case "summarize":
		var r runner.SummarizeResult
		err = json.Unmarshal(res.Result, &r)
		out = r.Headline
	case "counterfactual":
		var r runner.CounterfactualResult
		err = json.Unmarshal(res.Result, &r)
		out = fmt.Sprintf("%d SKU upgrades, %d proximity candidates", len(r.Upgrades), len(r.Proximity))
	case "policy":
		var r runner.PolicyChurnResult
		err = json.Unmarshal(res.Result, &r)
		out = fmt.Sprintf("%d segments, %d nodes moved vs the first window's baseline", r.Segments, r.Moved)
	}
	if err != nil {
		log.Fatal(err)
	}
	return out
}
