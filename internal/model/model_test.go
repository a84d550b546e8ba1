package model

import (
	"math"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/graph"
)

var t0 = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)

// hourGraph builds one hour of a preset at the given scale and seed.
func hourGraph(t testing.TB, preset string, scale float64, seed int64) *graph.Graph {
	t.Helper()
	spec, err := cluster.Preset(preset, scale)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = seed
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.CollectHour(t0)
	if err != nil {
		t.Fatal(err)
	}
	return graph.Build(recs, graph.BuilderOptions{Facet: graph.FacetIP})
}

func TestFingerprintShapeAndBounds(t *testing.T) {
	g := hourGraph(t, "microservicebench", 0.05, 1)
	fp := Fingerprint(g)
	if len(fp) != FingerprintLen {
		t.Fatalf("len = %d, want %d", len(fp), FingerprintLen)
	}
	for i, v := range fp {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("feature %s = %v", FeatureNames[i], v)
		}
	}
	// Share-type features live in [0, 1].
	for _, i := range []int{1, 2, 3, 4, 6, 7, 9, 11, 12, 13, 16, 17} {
		if fp[i] < 0 || fp[i] > 1 {
			t.Errorf("feature %s = %v outside [0,1]", FeatureNames[i], fp[i])
		}
	}
}

func TestFingerprintEmptyGraph(t *testing.T) {
	fp := Fingerprint(graph.New(graph.FacetIP))
	for i, v := range fp {
		if v != 0 {
			t.Errorf("empty graph feature %s = %v", FeatureNames[i], v)
		}
	}
}

func TestClassifierRecognizesWorkloadFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on many generated graphs")
	}
	// Pre-train on three workload families at varying scales/seeds and
	// classify held-out graphs with different seeds AND scales — the
	// "apply off-the-shelf on their communication graph" scenario.
	presets := []string{"portal", "microservicebench", "k8spaas"}
	var samples []Sample
	for _, p := range presets {
		for _, cfg := range []struct {
			scale float64
			seed  int64
		}{{0.05, 11}, {0.05, 12}, {0.08, 13}, {0.10, 14}} {
			samples = append(samples, Sample{Label: p, FP: Fingerprint(hourGraph(t, p, cfg.scale, cfg.seed))})
		}
	}
	clf, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(clf.Labels()) != 3 {
		t.Fatalf("labels = %v", clf.Labels())
	}
	correct := 0
	tests := 0
	for _, p := range presets {
		for _, cfg := range []struct {
			scale float64
			seed  int64
		}{{0.07, 99}, {0.12, 100}} {
			got, conf := clf.Classify(Fingerprint(hourGraph(t, p, cfg.scale, cfg.seed)))
			tests++
			if got == p {
				correct++
			} else {
				t.Logf("misclassified %s (scale %.2f seed %d) as %s (conf %.2f)", p, cfg.scale, cfg.seed, got, conf)
			}
		}
	}
	if correct < tests-1 {
		t.Errorf("accuracy %d/%d, want near-perfect on held-out graphs", correct, tests)
	}
}

func TestClassifierDistanceDrift(t *testing.T) {
	var samples []Sample
	for seed := int64(1); seed <= 4; seed++ {
		samples = append(samples, Sample{Label: "usvc", FP: Fingerprint(hourGraph(t, "microservicebench", 0.05, seed))})
	}
	clf, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	// The z-scored distance to a centroid, as Classify measures it.
	cen, ok := clf.centroids["usvc"]
	if !ok {
		t.Fatal("missing centroid")
	}
	same := dist(clf.zscore(Fingerprint(hourGraph(t, "microservicebench", 0.05, 50))), cen)
	other := dist(clf.zscore(Fingerprint(hourGraph(t, "portal", 0.05, 50))), cen)
	if other <= same {
		t.Errorf("portal graph should be farther from the usvc centroid: %v <= %v", other, same)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("want error for empty training set")
	}
	if _, err := Train([]Sample{{Label: "a", FP: []float64{1}}, {Label: "b", FP: []float64{1, 2}}}); err == nil {
		t.Error("want error for inconsistent lengths")
	}
}

func TestAttributionSumsToOne(t *testing.T) {
	g := hourGraph(t, "k8spaas", 0.1, 7)
	a := Attribute(g)
	sum := a.CliqueShare + a.HubShare + a.CollapsedShare + a.ScatterShare
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("attribution shares sum to %v", sum)
	}
	if a.Headline == "" {
		t.Error("no headline")
	}
}

func TestAttributionEmptyGraph(t *testing.T) {
	a := Attribute(graph.New(graph.FacetIP))
	if a.Headline != "no traffic" {
		t.Errorf("headline = %q", a.Headline)
	}
}

func TestAttributionCollapsedBucket(t *testing.T) {
	g := hourGraph(t, "k8spaas", 0.1, 7).Collapse(graph.CollapseOptions{Threshold: 0.001})
	a := Attribute(g)
	if a.CollapsedShare <= 0 {
		t.Error("collapsed graph should attribute some bytes to the long tail")
	}
}

// FeatureNames documents each fingerprint dimension, index-aligned.
var FeatureNames = [FingerprintLen]string{
	"log10_nodes",
	"density",
	"degree_p50_norm",
	"degree_p90_norm",
	"degree_max_norm",
	"strength_gini",
	"bytes_top1pct_share",
	"bytes_top10pct_share",
	"hub_count_norm",
	"hub_byte_share",
	"clique_count_norm",
	"clique_byte_share",
	"spectral_top1_share",
	"spectral_top5_share",
	"conns_per_node_log",
	"bytes_per_conn_log",
	"reciprocity",
	"external_share",
}
