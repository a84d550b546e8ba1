// Command experiments regenerates every table and figure of the paper's
// evaluation from the synthetic datasets, printing markdown suitable for
// EXPERIMENTS.md: paper target vs measured value for each artifact.
//
// Usage:
//
//	experiments -run all -out artifacts
//	experiments -run table1 -kquery-scale 0.25
//
// Experiment ids: table1, table3, fig1, fig2, fig3, fig4, fig5, fig6, pca,
// fig7, fig8, rules, hop, attacks, model, facets, enforce, live.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/graph"
)

// env carries shared experiment configuration plus a cache of generated
// hourly graphs so experiments sharing a dataset-hour don't regenerate it.
type env struct {
	outDir      string
	kqueryScale float64
	k8sScale    float64
	start       time.Time

	cache map[string]*hourData
}

// hourData is one cached dataset-hour.
type hourData struct {
	cluster    *cluster.Cluster
	recsPerMin int
	graph      *graph.Graph
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		run     = flag.String("run", "all", "comma-separated experiment ids or 'all'")
		out     = flag.String("out", "artifacts", "directory for DOT/PGM artifacts")
		kqScale = flag.Float64("kquery-scale", 0.15, "KQuery dataset scale (1.0 = paper size, expensive)")
		k8Scale = flag.Float64("k8s-scale", 1.0, "K8s PaaS dataset scale")
		start   = flag.Int64("start", 1700000000, "unix start time")
	)
	flag.Parse()

	e := &env{
		outDir:      *out,
		kqueryScale: *kqScale,
		k8sScale:    *k8Scale,
		start:       time.Unix(*start, 0).UTC().Truncate(time.Hour),
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	all := []struct {
		id string
		fn func(*env)
	}{
		{"table1", expTable1},
		{"table3", expTable3},
		{"fig1", expFig1},
		{"fig2", expFig2},
		{"fig3", expFig3},
		{"fig4", expFig4},
		{"fig5", expFig5},
		{"fig6", expFig6},
		{"pca", expPCA},
		{"fig7", expFig7},
		{"fig8", expFig8},
		{"rules", expRules},
		{"hop", expHOP},
		{"attacks", expAttacks},
		{"model", expModel},
		{"facets", expFacets},
		{"enforce", expEnforce},
		{"live", expLive},
	}
	want := map[string]bool{}
	if *run != "all" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	ran := 0
	for _, exp := range all {
		if *run != "all" && !want[exp.id] {
			continue
		}
		t := time.Now()
		exp.fn(e)
		fmt.Printf("\n_(%s took %v)_\n", exp.id, time.Since(t).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		log.Fatalf("no experiment matched -run=%q", *run)
	}
}

// hourly generates (or returns the cached) hour of a preset: the cluster,
// the raw records-per-minute count and the collapsed IP graph. Note the
// cache means the same deterministic hour is reused across experiments —
// which is what reusing one captured trace would do.
func hourly(e *env, preset string, scale float64, at time.Time) (*cluster.Cluster, int, *graph.Graph) {
	key := fmt.Sprintf("%s/%.3f/%d", preset, scale, at.Unix())
	if e.cache == nil {
		e.cache = make(map[string]*hourData)
	}
	if d, ok := e.cache[key]; ok {
		return d.cluster, d.recsPerMin, d.graph
	}
	spec, err := cluster.Preset(preset, scale)
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := c.CollectHour(at)
	if err != nil {
		log.Fatal(err)
	}
	g := graph.Build(recs, graph.BuilderOptions{Facet: graph.FacetIP})
	if spec.CollapseThreshold > 0 {
		g = g.Collapse(graph.CollapseOptions{
			Threshold: spec.CollapseThreshold,
			Keep:      func(n graph.Node) bool { return c.Monitored(n.Addr) },
		})
	}
	e.cache[key] = &hourData{cluster: c, recsPerMin: len(recs) / 60, graph: g}
	return c, len(recs) / 60, g
}

// windowEngine returns an engine for cfg that appends each completed
// window to *windows; the slice is complete once Flush returns.
func windowEngine(cfg core.Config, windows *[]*graph.Graph) *core.Engine {
	cfg.Consumers = append(cfg.Consumers, core.ConsumerSpec{
		Name: "windows",
		Fn:   func(_ uint64, g *graph.Graph) { *windows = append(*windows, g) },
	})
	return core.NewEngine(cfg)
}

// datasetScale returns the scale each dataset runs at.
func (e *env) datasetScale(preset string) float64 {
	switch preset {
	case "kquery":
		return e.kqueryScale
	case "k8spaas":
		return e.k8sScale
	}
	return 1
}

// artifact returns a path inside the output directory.
func (e *env) artifact(name string) string { return filepath.Join(e.outDir, name) }

// header prints a markdown experiment header.
func header(id, title, paperClaim string) {
	fmt.Printf("\n## %s — %s\n\n", id, title)
	fmt.Printf("**Paper:** %s\n\n", paperClaim)
}
