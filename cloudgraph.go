// Package cloudgraph builds complete, dynamic communication graphs of cloud
// subscriptions from connection-summary telemetry and runs the security and
// management analyses on top of them, reproducing "Securing Public Clouds
// using Dynamic Communication Graphs" (HotNets '23).
//
// The pipeline mirrors the paper end to end:
//
//   - smartNIC-style collection (Figure 7): nicsim-backed synthetic
//     clusters emit per-minute per-VM connection summaries (Table 2), with
//     provider profiles matching Azure/AWS/GCP flow logs (Table 3);
//   - graph construction (§3.2): streamed group-by aggregation with
//     flow deduplication, heavy-hitter collapsing and hourly windowing;
//   - micro-segmentation (§2.1): role inference via Jaccard neighbor
//     overlap + Louvain (Figure 1), with SimRank, SimRank++ and
//     modularity baselines (Figure 3), default-deny reachability policies,
//     rule-explosion accounting, tag compilation, similarity- and
//     proportionality-based higher-order policies, and blast radius;
//   - succinct summaries (§2.2): PCA spectral compression, chatty-clique
//     and hub-and-spoke mining, CCDFs (Figure 6), anomaly detection
//     (Figure 5);
//   - counterfactuals (§2.3): flow-size/inter-arrival distributions, FCT
//     modelling and capacity planning;
//   - a SaaS-style analytics service (Figure 8) with TCP ingest.
//
// Quick start:
//
//	spec, _ := cloudgraph.Preset("k8spaas", 0.25)
//	cl, _ := cloudgraph.NewCluster(spec)
//	recs, _ := cl.CollectHour(start)
//	g := cloudgraph.BuildGraph(recs, cloudgraph.GraphOptions{})
//	assign, _ := cloudgraph.Segment(g, cloudgraph.SegmentOptions{})
//	policy := cloudgraph.LearnPolicy(g, assign)
//
// The subpackages under internal/ hold the implementations; this package
// is the supported surface.
package cloudgraph

import (
	"io"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/counterfactual"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/histstore"
	"cloudgraph/internal/ingest"
	"cloudgraph/internal/matrix"
	"cloudgraph/internal/model"
	"cloudgraph/internal/policy"
	"cloudgraph/internal/segment"
	"cloudgraph/internal/summarize"
)

// Telemetry types (Table 2 / Table 3).
type (
	// Record is one connection summary in the Table 2 schema.
	Record = flowlog.Record
	// FlowKey identifies a flow directionlessly.
	FlowKey = flowlog.FlowKey
	// Provider describes a cloud's flow-log offering (Table 3).
	Provider = flowlog.Provider
	// Sampler applies a provider's sampling policy to a stream.
	Sampler = flowlog.Sampler
)

// Graph types.
type (
	// Graph is a communication graph over one time window.
	Graph = graph.Graph
	// Node is one vertex (IP, IP:port or service, by facet).
	Node = graph.Node
	// Facet selects node granularity.
	Facet = graph.Facet
	// Metric selects an edge counter (bytes, packets, connections).
	Metric = graph.Metric
	// Counters is a bytes/packets/connections triple.
	Counters = graph.Counters
	// Stats summarizes one graph.
	Stats = graph.Stats
	// Delta captures what changed between two windows.
	Delta = graph.Delta
)

// Facets and metrics.
const (
	FacetIP       = graph.FacetIP
	FacetIPPort   = graph.FacetIPPort
	FacetService  = graph.FacetService
	FacetEndpoint = graph.FacetEndpoint

	Bytes   = graph.Bytes
	Packets = graph.Packets
	Conns   = graph.Conns
)

// Analysis types.
type (
	// Assignment maps nodes to µsegments.
	Assignment = segment.Assignment
	// Strategy names a segmentation algorithm.
	Strategy = segment.Strategy
	// SegmentOptions tunes segmentation.
	SegmentOptions = segment.Options
	// Quality scores a segmentation against ground truth.
	Quality = segment.Quality
	// Reachability is a learned default-deny policy.
	Reachability = policy.Reachability
	// RuleStats reports compiled rule-table sizes.
	RuleStats = policy.RuleStats
	// Summary is an executive summary of one window.
	Summary = summarize.Summary
	// CCDFPoint is one point of the Figure 6 curve.
	CCDFPoint = summarize.CCDFPoint
	// PCA is a reusable eigendecomposition for rank-k summaries.
	PCA = matrix.PCA
	// Dist is an empirical distribution (flow sizes, inter-arrivals).
	Dist = counterfactual.Dist
	// FCTModel estimates flow completion times under load.
	FCTModel = counterfactual.FCTModel
	// Plan is a capacity plan (upgrades + proximity groups).
	Plan = counterfactual.Plan
	// Engine is the streaming window producer: it publishes each
	// completed window to the consumers its config subscribes.
	Engine = core.Engine
	// EngineConfig parameterizes an Engine.
	EngineConfig = core.Config
	// ConsumerSpec subscribes a function to an Engine's completed windows.
	ConsumerSpec = core.ConsumerSpec
	// Baseline is a learned segmentation and reachability policy, with the
	// window it was learned on pinned for proportionality checks.
	Baseline = policy.Baseline
	// MonitorReport is the security assessment of one window.
	MonitorReport = policy.MonitorReport
	// CostReport accounts ingest volume and compute (COGS).
	CostReport = ingest.CostReport
)

// Segmentation strategies (Figures 1 and 3).
const (
	JaccardLouvain  = segment.StrategyJaccardLouvain
	MinHashLouvain  = segment.StrategyMinHashLouvain
	SimRank         = segment.StrategySimRank
	SimRankPP       = segment.StrategySimRankPP
	ModularityConn  = segment.StrategyModularityConn
	ModularityBytes = segment.StrategyModularityBytes
)

// Cluster types (synthetic workloads standing in for Table 1's datasets).
type (
	// Cluster is a runnable synthetic workload.
	Cluster = cluster.Cluster
	// ClusterSpec declares a cluster.
	ClusterSpec = cluster.Spec
	// RoleSpec declares one role of a cluster.
	RoleSpec = cluster.RoleSpec
	// LinkSpec declares traffic between two roles.
	LinkSpec = cluster.LinkSpec
	// MeshSpec declares node-level mesh chatter.
	MeshSpec = cluster.MeshSpec
	// Attack injects malicious traffic.
	Attack = cluster.Attack
)

// Providers returns the Table 3 provider profiles (Azure, AWS, GCP).
func Providers() []Provider { return flowlog.Providers() }

// Preset returns a Table 1 dataset spec ("portal", "microservicebench",
// "k8spaas", "kquery") at the given scale in (0, 1].
func Preset(name string, scale float64) (ClusterSpec, error) {
	return cluster.Preset(name, scale)
}

// PresetNames lists the dataset presets in Table 1 order.
func PresetNames() []string { return cluster.PresetNames() }

// NewCluster materializes a cluster spec.
func NewCluster(spec ClusterSpec) (*Cluster, error) { return cluster.New(spec) }

// GraphOptions configures BuildGraph.
type GraphOptions struct {
	// Facet selects node granularity (default FacetIP).
	Facet Facet
	// Label maps addresses to service names for FacetService.
	Label graph.Labeler
	// KeepSeries records per-interval time series on edges.
	KeepSeries bool
	// CollapseThreshold, when positive, merges nodes below this traffic
	// share into one (the paper uses 0.001). Keep protects nodes from
	// collapsing (typically the monitored VMs).
	CollapseThreshold float64
	Keep              func(Node) bool
}

// BuildGraph aggregates connection summaries into one communication graph,
// deduplicating double-reported intra-subscription flows and optionally
// collapsing heavy-hitter tails.
func BuildGraph(recs []Record, opts GraphOptions) *Graph {
	g := graph.Build(recs, graph.BuilderOptions{
		Facet:      opts.Facet,
		Label:      opts.Label,
		KeepSeries: opts.KeepSeries,
	})
	if opts.CollapseThreshold > 0 || opts.Keep != nil {
		g = g.Collapse(graph.CollapseOptions{Threshold: opts.CollapseThreshold, Keep: opts.Keep})
	}
	return g
}

// Segment runs the paper's auto-segmentation (Jaccard + Louvain) on a
// graph. Use SegmentWith for the baseline strategies of Figure 3.
func Segment(g *Graph, opts SegmentOptions) (Assignment, error) {
	return segment.Run(segment.StrategyJaccardLouvain, g, opts)
}

// SegmentWith runs a specific segmentation strategy.
func SegmentWith(s Strategy, g *Graph, opts SegmentOptions) (Assignment, error) {
	return segment.Run(s, g, opts)
}

// ScoreSegmentation compares a segmentation against ground-truth roles.
func ScoreSegmentation(a Assignment, truth map[Node]string) Quality {
	return segment.Score(a, truth)
}

// LearnPolicy derives the default-deny reachability policy implied by an
// observation window under a segmentation.
func LearnPolicy(g *Graph, a Assignment) *Reachability { return policy.Learn(g, a) }

// Summarize produces the succinct summary of a graph: stats, hubs, chatty
// cliques, CCDF and a headline.
func Summarize(g *Graph) Summary { return summarize.Summarize(g) }

// CCDF computes the Figure 6 traffic-concentration curve.
func CCDF(g *Graph, m Metric) []CCDFPoint { return summarize.CCDF(g, m) }

// NewPCA decomposes a graph's symmetrized adjacency matrix under metric m
// for rank-k reconstruction sweeps (§2.2).
func NewPCA(g *Graph, m Metric) (*PCA, error) {
	adj := g.AdjacencyMatrix(m)
	return matrix.NewPCA(adj.Symmetrized(), adj.N)
}

// FlowSizes returns the distribution of bytes per flow.
func FlowSizes(recs []Record) *Dist { return counterfactual.FlowSizes(recs) }

// InterArrivals returns the distribution of gaps between new flow
// arrivals, quantized to the telemetry interval.
func InterArrivals(recs []Record, interval time.Duration) *Dist {
	return counterfactual.InterArrivals(recs, interval)
}

// PlanCapacity finds bottlenecks and proximity-group candidates (§2.3).
func PlanCapacity(g *Graph, capacityPerMin, utilThreshold float64, topPairs int) Plan {
	return counterfactual.PlanCapacity(g, capacityPerMin, utilThreshold, topPairs)
}

// NewEngine returns the streaming engine: ingest records and receive the
// windowed graphs on cfg.Consumers.
func NewEngine(cfg EngineConfig) *Engine { return core.NewEngine(cfg) }

// LearnBaseline runs the paper's auto-segmentation on a window and learns
// the reachability policy from it; Baseline.Monitor then assesses later
// windows against it.
func LearnBaseline(g *Graph, opts SegmentOptions) (*Baseline, error) {
	return policy.LearnBaseline(segment.StrategyJaccardLouvain, g, opts)
}

// Workload-classification extension (§2.2 open issue): quantized graph
// fingerprints, a pre-trainable classifier, and byte attribution.
type (
	// Classifier is a pre-trained workload-family model.
	Classifier = model.Classifier
	// ModelSample is one labelled training fingerprint.
	ModelSample = model.Sample
	// Attribution decomposes a graph's bytes into canonical patterns.
	Attribution = model.Attribution
)

// Fingerprint quantizes a graph into a fixed-size feature vector suitable
// for models pre-trained across graphs of very different sizes.
func Fingerprint(g *Graph) []float64 { return model.Fingerprint(g) }

// TrainClassifier fits the nearest-centroid workload classifier.
func TrainClassifier(samples []ModelSample) (*Classifier, error) { return model.Train(samples) }

// Attribute produces the "X% of your bytes are doing Y" decomposition.
func Attribute(g *Graph) Attribution { return model.Attribute(g) }

// ParseAzureNSG ingests a real Azure NSG flow log (version 2) export.
func ParseAzureNSG(r io.Reader) ([]Record, error) { return flowlog.ParseAzureNSG(r) }

// Durable history for "what changed?" / "what happened during that
// (past) event?" (§1): the epoch-indexed, crash-recoverable window store
// behind cloudgraphd -data-dir and graphctl archive/history.

// History is a durable, epoch-indexed window history rooted at one
// directory. One process owns a directory at a time.
type History = histstore.Store

// OpenHistory opens (or creates) the window history rooted at dir,
// running crash recovery first.
func OpenHistory(dir string) (*History, error) { return histstore.Open(dir, histstore.Options{}) }
