// Package model is the repo's take on the paper's §2.2 open issue: "whether
// it may be possible to learn a generalizable model to classify cloud
// communication patterns ... a model pre-trained over many communication
// graphs which a customer can apply off-the-shelf on their communication
// graph to identify the canonical patterns in their network."
//
// The paper notes the key obstacles — graphs of very different sizes and
// degrees, and the need to "quantize carefully because a generalizable
// model takes fixed sized inputs". Fingerprint addresses exactly that: it
// quantizes any communication graph into a fixed-length, size-normalized
// feature vector (degree/strength quantiles, concentration, hub and clique
// shares, spectral mass). Classifier is a deliberately simple pre-trainable
// model over those fingerprints (z-scored nearest centroid): small enough
// to be trained on synthetic workloads in a unit test, useful enough to
// recognize which canonical workload family an unseen subscription's graph
// belongs to, and to notice when an hour no longer looks like its past.
package model

import (
	"fmt"
	"math"
	"sort"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/matrix"
	"cloudgraph/internal/summarize"
)

// FingerprintLen is the fixed input size of the model.
const FingerprintLen = 18

// Fingerprint quantizes a graph into the fixed-size vector. Spectral
// features use power iteration, so graphs of any size are affordable.
func Fingerprint(g *graph.Graph) []float64 {
	fp := make([]float64, FingerprintLen)
	n := g.NumNodes()
	if n == 0 {
		return fp
	}
	stats := g.ComputeStats()
	nodes := g.Nodes()

	degrees := make([]float64, 0, n)
	strengths := make([]float64, 0, n)
	for _, node := range nodes {
		degrees = append(degrees, float64(g.Degree(node)))
		strengths = append(strengths, float64(g.NodeStrength(node, graph.Bytes)))
	}
	sort.Float64s(degrees)
	sort.Float64s(strengths)

	fp[0] = math.Log10(float64(n))
	fp[1] = stats.Density
	fn := float64(n)
	fp[2] = quantile(degrees, 0.5) / fn
	fp[3] = quantile(degrees, 0.9) / fn
	fp[4] = degrees[len(degrees)-1] / fn
	fp[5] = gini(strengths)

	ccdf := summarize.CCDF(g, graph.Bytes)
	fp[6] = 1 - ccdfAt(ccdf, 0.01)
	fp[7] = 1 - ccdfAt(ccdf, 0.10)

	hubs := summarize.Hubs(g, 0.5)
	fp[8] = math.Min(1, float64(len(hubs))*10/fn)
	for _, h := range hubs {
		fp[9] += h.ByteShare
	}
	fp[9] = math.Min(1, fp[9])

	cliques := summarize.ChattyCliques(g, 3, 0.5, 0.01)
	fp[10] = math.Min(1, float64(len(cliques))*10/fn)
	for _, c := range cliques {
		fp[11] += c.ByteShare
	}
	fp[11] = math.Min(1, fp[11])

	// Spectral mass concentration of the (size-normalized) byte matrix.
	adj := g.AdjacencyMatrix(graph.Bytes)
	sym := adj.Symmetrized()
	var total float64
	for i := 0; i < adj.N; i++ {
		for j := 0; j < adj.N; j++ {
			total += math.Abs(sym[i*adj.N+j])
		}
	}
	if total > 0 {
		vals, _ := matrix.TopEigenSym(sym, adj.N, 5, 60, 1)
		var absSum float64
		for _, v := range vals {
			absSum += math.Abs(v)
		}
		if len(vals) > 0 {
			fp[12] = math.Min(1, math.Abs(vals[0])/total)
		}
		fp[13] = math.Min(1, absSum/total)
	}

	t := g.TotalTraffic()
	fp[14] = math.Log10(1 + float64(t.Conns)/fn)
	if t.Conns > 0 {
		fp[15] = math.Log10(1 + float64(t.Bytes)/float64(t.Conns))
	}
	fp[16] = reciprocity(g)
	fp[17] = externalShare(g)
	return fp
}

// quantile reads the p-quantile of a sorted slice by nearest rank.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// gini computes the Gini coefficient of a sorted non-negative slice — the
// concentration of traffic across nodes.
func gini(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	var sum, weighted float64
	for i, v := range sorted {
		sum += v
		weighted += float64(i+1) * v
	}
	if sum == 0 {
		return 0
	}
	return (2*weighted/(float64(n)*sum) - float64(n+1)/float64(n))
}

// reciprocity is the fraction of communicating pairs with traffic in both
// directions.
func reciprocity(g *graph.Graph) float64 {
	edges := g.UndirectedEdges()
	if len(edges) == 0 {
		return 0
	}
	both := 0
	for _, e := range edges {
		a := g.OutEdge(e.A, e.B)
		b := g.OutEdge(e.B, e.A)
		if a != nil && b != nil && a.Bytes > 0 && b.Bytes > 0 {
			both++
		}
	}
	return float64(both) / float64(len(edges))
}

// externalShare is the byte share of pairs involving a non-RFC1918 (or
// collapsed) endpoint — the internet-facing fraction of the traffic.
func externalShare(g *graph.Graph) float64 {
	isExternal := func(n graph.Node) bool {
		if n.IsCollapsed() {
			return true
		}
		return n.Addr.IsValid() && !n.Addr.IsPrivate()
	}
	t := g.TotalTraffic()
	if t.Bytes == 0 {
		return 0
	}
	var ext uint64
	for _, e := range g.UndirectedEdges() {
		if isExternal(e.A) || isExternal(e.B) {
			ext += e.Bytes
		}
	}
	return float64(ext) / float64(t.Bytes)
}

// ccdfAt interpolates a CCDF curve at a node fraction.
func ccdfAt(points []summarize.CCDFPoint, frac float64) float64 {
	for _, p := range points {
		if p.Fraction >= frac {
			return p.CCDF
		}
	}
	if len(points) == 0 {
		return 1
	}
	return points[len(points)-1].CCDF
}

// Sample is one labelled training graph fingerprint.
type Sample struct {
	Label string
	FP    []float64
}

// Classifier is a z-score-normalized nearest-centroid model over
// fingerprints.
type Classifier struct {
	mean, std []float64
	centroids map[string][]float64
	labels    []string
}

// Train fits a classifier. It fails on empty input or inconsistent
// fingerprint lengths.
func Train(samples []Sample) (*Classifier, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("model: no training samples")
	}
	d := len(samples[0].FP)
	for _, s := range samples {
		if len(s.FP) != d {
			return nil, fmt.Errorf("model: inconsistent fingerprint length %d != %d", len(s.FP), d)
		}
	}
	c := &Classifier{
		mean:      make([]float64, d),
		std:       make([]float64, d),
		centroids: make(map[string][]float64),
	}
	for _, s := range samples {
		for i, v := range s.FP {
			c.mean[i] += v
		}
	}
	for i := range c.mean {
		c.mean[i] /= float64(len(samples))
	}
	for _, s := range samples {
		for i, v := range s.FP {
			dlt := v - c.mean[i]
			c.std[i] += dlt * dlt
		}
	}
	for i := range c.std {
		c.std[i] = math.Sqrt(c.std[i] / float64(len(samples)))
		if c.std[i] < 1e-9 {
			c.std[i] = 1 // constant feature: neutral scale
		}
	}
	counts := make(map[string]int)
	for _, s := range samples {
		z := c.zscore(s.FP)
		cen := c.centroids[s.Label]
		if cen == nil {
			cen = make([]float64, d)
			c.centroids[s.Label] = cen
			c.labels = append(c.labels, s.Label)
		}
		for i, v := range z {
			cen[i] += v
		}
		counts[s.Label]++
	}
	for label, cen := range c.centroids {
		for i := range cen {
			cen[i] /= float64(counts[label])
		}
	}
	sort.Strings(c.labels)
	return c, nil
}

func (c *Classifier) zscore(fp []float64) []float64 {
	z := make([]float64, len(fp))
	for i, v := range fp {
		z[i] = (v - c.mean[i]) / c.std[i]
	}
	return z
}

// Classify returns the nearest centroid's label and a confidence in (0, 1]:
// the margin between the best and second-best distances.
func (c *Classifier) Classify(fp []float64) (label string, confidence float64) {
	z := c.zscore(fp)
	best, second := math.Inf(1), math.Inf(1)
	for _, l := range c.labels {
		d := dist(z, c.centroids[l])
		if d < best {
			second = best
			best, label = d, l
		} else if d < second {
			second = d
		}
	}
	if math.IsInf(second, 1) {
		return label, 1
	}
	if second == 0 {
		return label, 0
	}
	confidence = 1 - best/second
	if confidence < 0 {
		confidence = 0
	}
	return label, confidence
}

// Labels lists the trained labels.
func (c *Classifier) Labels() []string { return append([]string(nil), c.labels...) }

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
