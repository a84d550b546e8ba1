// Command graphctl builds communication graphs from flow-log files and
// runs the paper's analyses on them from the command line.
//
// Usage:
//
//	graphctl stats      [-collapse 0.001] file.flows
//	graphctl segment    [-strategy jaccard-louvain] [-topk 6] file.flows
//	graphctl policy     [-limit 1000] file.flows
//	graphctl summarize  file.flows
//	graphctl heatmap    [-size 64] [-pgm out.pgm] file.flows
//	graphctl ccdf       file.flows
//	graphctl pca        [-k 25] file.flows
//	graphctl dot        file.flows
//	graphctl plan       [-capacity 2e9] file.flows
//	graphctl send       -addr host:port [-tenant name] [-flush] file.flows
//	graphctl query      [-addr host:port] [-tenant name] <analysis> [<epoch>|latest]
//	graphctl diff       old.flows new.flows
//	graphctl windows    [-window 1h] file.flows
//	graphctl attribution file.flows
//	graphctl archive    [-window 1h] [-store dir] file.flows
//	graphctl history    [-from t] [-to t] dir
//	graphctl top        [-ops host:port] [-interval 2s]
//
// archive and history work on a history directory in the same
// epoch-indexed format as a cloudgraphd -data-dir tenant partition
// (<data-dir>/<tenant>/). history opens the directory, which runs crash
// recovery and takes ownership of it, so point it only at a directory no
// daemon is serving; ask a live daemon with `graphctl query <analysis>
// <RFC3339 time>` instead.
//
// Files may be binary (flowgen default), CSV (.csv suffix), Azure NSG
// flow log v2 exports (.json suffix), or tagged multi-tenant captures
// (.tflows suffix, flowgen -tenants): send replays each record onto the
// tenant realm its frame names.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"cloudgraph/internal/analytics"
	"cloudgraph/internal/core"
	"cloudgraph/internal/counterfactual"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/heatmap"
	"cloudgraph/internal/histstore"
	"cloudgraph/internal/matrix"
	"cloudgraph/internal/model"
	"cloudgraph/internal/policy"
	"cloudgraph/internal/segment"
	"cloudgraph/internal/summarize"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphctl: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "stats":
		cmdStats(args)
	case "segment":
		cmdSegment(args)
	case "policy":
		cmdPolicy(args)
	case "summarize":
		cmdSummarize(args)
	case "heatmap":
		cmdHeatmap(args)
	case "ccdf":
		cmdCCDF(args)
	case "pca":
		cmdPCA(args)
	case "dot":
		cmdDOT(args)
	case "plan":
		cmdPlan(args)
	case "send":
		cmdSend(args)
	case "query":
		cmdQuery(args)
	case "diff":
		cmdDiff(args)
	case "windows":
		cmdWindows(args)
	case "attribution":
		cmdAttribution(args)
	case "archive":
		cmdArchive(args)
	case "history":
		cmdHistory(args)
	case "top":
		cmdTop(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: graphctl {stats|segment|policy|summarize|heatmap|ccdf|pca|dot|plan|send|query|diff|windows|attribution|archive|history|top} [flags] <file>")
	os.Exit(2)
}

// readRecords loads a flow-log file in binary or CSV format.
func readRecords(path string) []flowlog.Record {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	var recs []flowlog.Record
	if strings.HasSuffix(path, ".json") {
		var err error
		recs, err = flowlog.ParseAzureNSG(r)
		if err != nil {
			log.Fatal(err)
		}
	} else if strings.HasSuffix(path, ".csv") {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			rec, err := flowlog.ParseCSV(sc.Text())
			if err != nil {
				log.Fatal(err)
			}
			recs = append(recs, rec)
		}
		if err := sc.Err(); err != nil {
			log.Fatal(err)
		}
	} else {
		rd := flowlog.NewReader(r)
		for {
			rec, err := rd.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				log.Fatal(err)
			}
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		log.Fatal("no records in input")
	}
	return recs
}

// buildFlags returns the shared flag set for graph construction.
func buildFlags(fs *flag.FlagSet) (collapse *float64, facet *string) {
	collapse = fs.Float64("collapse", 0, "heavy-hitter collapse threshold (paper: 0.001)")
	facet = fs.String("facet", "ip", "graph facet: ip or ip-port")
	return
}

func buildGraph(recs []flowlog.Record, collapse float64, facet string) *graph.Graph {
	opts := graph.BuilderOptions{}
	switch facet {
	case "ip":
		opts.Facet = graph.FacetIP
	case "ip-port":
		opts.Facet = graph.FacetIPPort
	default:
		log.Fatalf("unknown facet %q", facet)
	}
	g := graph.Build(recs, opts)
	if collapse > 0 {
		g = g.Collapse(graph.CollapseOptions{Threshold: collapse})
	}
	return g
}

// parseArgs parses flags and returns the single positional file argument.
func parseArgs(fs *flag.FlagSet, args []string) string {
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: graphctl %s [flags] <file>\n", fs.Name())
		os.Exit(2)
	}
	return fs.Arg(0)
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	collapse, facet := buildFlags(fs)
	file := parseArgs(fs, args)
	recs := readRecords(file)
	g := buildGraph(recs, *collapse, *facet)
	s := g.ComputeStats()
	fmt.Printf("facet      %s\n", s.Facet)
	fmt.Printf("records    %d\n", len(recs))
	fmt.Printf("nodes      %d\n", s.Nodes)
	fmt.Printf("edges      %d\n", s.Edges)
	fmt.Printf("density    %.5f\n", s.Density)
	fmt.Printf("max degree %d\n", s.MaxDeg)
	fmt.Printf("bytes      %d\n", s.Bytes)
	fmt.Printf("packets    %d\n", s.Packets)
	fmt.Printf("conns      %d\n", s.Conns)
}

func cmdSegment(args []string) {
	fs := flag.NewFlagSet("segment", flag.ExitOnError)
	collapse, facet := buildFlags(fs)
	strategy := fs.String("strategy", string(segment.StrategyJaccardLouvain), "segmentation strategy")
	topk := fs.Int("topk", 0, "kNN sparsification (0 = default)")
	file := parseArgs(fs, args)
	g := buildGraph(readRecords(file), *collapse, *facet)
	assign, err := segment.Run(segment.Strategy(*strategy), g, segment.Options{TopK: *topk})
	if err != nil {
		log.Fatal(err)
	}
	segs := assign.Segments()
	fmt.Printf("%d segments over %d nodes\n", assign.NumSegments(), len(assign))
	for i, members := range segs {
		fmt.Printf("segment %d (%d members):", i, len(members))
		for j, m := range members {
			if j == 8 {
				fmt.Printf(" …")
				break
			}
			fmt.Printf(" %s", m)
		}
		fmt.Println()
	}
}

func cmdPolicy(args []string) {
	fs := flag.NewFlagSet("policy", flag.ExitOnError)
	collapse, facet := buildFlags(fs)
	limit := fs.Int("limit", policy.DefaultRuleLimit, "per-VM rule budget")
	file := parseArgs(fs, args)
	g := buildGraph(readRecords(file), *collapse, *facet)
	assign, err := segment.Run(segment.StrategyJaccardLouvain, g, segment.Options{})
	if err != nil {
		log.Fatal(err)
	}
	r := policy.Learn(g, assign)
	ip := r.CompileIPRules(*limit)
	tags := r.CompileTagRules(*limit)
	fmt.Printf("segments        %d\n", assign.NumSegments())
	fmt.Printf("allowed pairs   %d\n", len(r.AllowedPairs()))
	fmt.Printf("blast radius    %.1f mean (unsegmented baseline %d)\n", r.MeanBlastRadius(), len(assign)-1)
	fmt.Printf("ip rules        total=%d max/VM=%d over-limit=%d (limit %d)\n", ip.Total, ip.Max, ip.OverLimit, ip.Limit)
	fmt.Printf("tag rules       total=%d max/VM=%d over-limit=%d\n", tags.Total, tags.Max, tags.OverLimit)
}

func cmdSummarize(args []string) {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	collapse, facet := buildFlags(fs)
	file := parseArgs(fs, args)
	g := buildGraph(readRecords(file), *collapse, *facet)
	s := summarize.Summarize(g)
	fmt.Println(s.Headline)
	for _, h := range s.Hubs {
		fmt.Printf("hub    %-22s degree=%d byte-share=%.2f\n", h.Node, h.Degree, h.ByteShare)
	}
	for _, c := range s.Cliques {
		fmt.Printf("clique %d members, density %.2f, %.1f%% of bytes\n", len(c.Members), c.Density, 100*c.ByteShare)
	}
}

func cmdHeatmap(args []string) {
	fs := flag.NewFlagSet("heatmap", flag.ExitOnError)
	collapse, facet := buildFlags(fs)
	size := fs.Int("size", 64, "ASCII render size")
	pgm := fs.String("pgm", "", "also write a PGM image to this path")
	file := parseArgs(fs, args)
	g := buildGraph(readRecords(file), *collapse, *facet)
	adj := g.AdjacencyMatrix(graph.Bytes)
	fmt.Print(heatmap.ASCII(adj.M, adj.N, *size))
	if *pgm != "" {
		if err := os.WriteFile(*pgm, heatmap.PGM(adj.M, adj.N), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%dx%d)\n", *pgm, adj.N, adj.N)
	}
}

func cmdCCDF(args []string) {
	fs := flag.NewFlagSet("ccdf", flag.ExitOnError)
	collapse, facet := buildFlags(fs)
	file := parseArgs(fs, args)
	g := buildGraph(readRecords(file), *collapse, *facet)
	pts := summarize.CCDF(g, graph.Bytes)
	fmt.Println("fraction_of_nodes ccdf_bytes")
	// Print a readable subsample: every point for small graphs, decimated
	// for large ones.
	step := len(pts)/50 + 1
	for i := 0; i < len(pts); i += step {
		fmt.Printf("%.4f %.3e\n", pts[i].Fraction, pts[i].CCDF)
	}
	fmt.Printf("top 1%% of nodes carry %.1f%% of bytes\n", 100*(1-ccdfAtFrac(pts, 0.01)))
}

func ccdfAtFrac(pts []summarize.CCDFPoint, f float64) float64 {
	for _, p := range pts {
		if p.Fraction >= f {
			return p.CCDF
		}
	}
	return 0
}

func cmdPCA(args []string) {
	fs := flag.NewFlagSet("pca", flag.ExitOnError)
	collapse, facet := buildFlags(fs)
	k := fs.Int("k", 25, "eigenvectors to keep")
	file := parseArgs(fs, args)
	g := buildGraph(readRecords(file), *collapse, *facet)
	adj := g.AdjacencyMatrix(graph.Bytes)
	p, err := matrix.NewPCA(adj.Symmetrized(), adj.N)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n=%d\n", p.N)
	for _, kk := range []int{1, 5, 10, *k, 2 * *k} {
		if kk > p.N {
			break
		}
		fmt.Printf("k=%-4d ReconErr=%.4f\n", kk, p.ReconErr(kk))
	}
	fmt.Printf("rank for ReconErr<=0.05: %d\n", p.RankFor(0.05))
}

func cmdDOT(args []string) {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	collapse, facet := buildFlags(fs)
	colored := fs.Bool("roles", true, "color nodes by inferred role")
	file := parseArgs(fs, args)
	g := buildGraph(readRecords(file), *collapse, *facet)
	var labels map[graph.Node]int
	if *colored {
		assign, err := segment.Run(segment.StrategyJaccardLouvain, g, segment.Options{})
		if err != nil {
			log.Fatal(err)
		}
		labels = assign
	}
	fmt.Print(g.DOT(graph.Bytes, labels))
}

func cmdPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	collapse, facet := buildFlags(fs)
	capacity := fs.Float64("capacity", 2e9, "per-VM capacity in bytes/min")
	threshold := fs.Float64("threshold", 0.7, "utilization threshold for SKU upgrades")
	pairs := fs.Int("pairs", 5, "proximity-group candidates to list")
	file := parseArgs(fs, args)
	g := buildGraph(readRecords(file), *collapse, *facet)
	plan := counterfactual.PlanCapacity(g, *capacity, *threshold, *pairs)
	fmt.Printf("%d SKU upgrade candidate(s):\n", len(plan.Upgrades))
	for _, u := range plan.Upgrades {
		fmt.Printf("  %-22s %.0f B/min (%.0f%% util)\n", u.Node, u.BytesPerMin, 100*u.Utilization)
	}
	fmt.Printf("%d proximity-group candidate pair(s):\n", len(plan.Proximity))
	for _, e := range plan.Proximity {
		fmt.Printf("  %s <-> %s  %d bytes\n", e.A, e.B, e.Bytes)
	}
}

func cmdSend(args []string) {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7443", "cloudgraphd address")
	batch := fs.Int("batch", 4096, "records per INGEST batch")
	flush := fs.Bool("flush", false, "FLUSH after sending and print the sealed epoch")
	tenant := fs.String("tenant", "", "session tenant: untagged records land on this realm instead of the default")
	file := parseArgs(fs, args)
	// A .tflows capture (flowgen -tenants) carries per-record tenant tags
	// that override the session tenant frame by frame; every other format
	// is untagged and follows -tenant wholesale.
	var recs []flowlog.Record
	var tenants []string
	if strings.HasSuffix(file, ".tflows") {
		f, err := os.Open(file)
		if err != nil {
			log.Fatal(err)
		}
		recs, tenants, err = analytics.ReadTagged(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if len(recs) == 0 {
			log.Fatal("no records in input")
		}
	} else {
		recs = readRecords(file)
	}
	client, err := analytics.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if *tenant != "" {
		if err := client.Tenant(*tenant); err != nil {
			log.Fatal(err)
		}
	}
	start := time.Now()
	for i := 0; i < len(recs); i += *batch {
		end := min(i+*batch, len(recs))
		if tenants != nil {
			err = client.IngestTagged(recs[i:end], nil, tenants[i:end])
		} else {
			err = client.Ingest(recs[i:end])
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "sent %d records in %v\n", len(recs), time.Since(start).Round(time.Millisecond))
	if *flush {
		epoch, err := client.Flush()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("flushed: sealed through epoch %d\n", epoch)
	}
	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %d records, %d windows\n", stats.Records, stats.Windows)
}

// cmdQuery asks a live daemon's analysis plane for an online result:
// `graphctl query segment latest` prints the segmentation of the newest
// completed window, epoch-pinned so the exact snapshot is re-queryable.
func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7443", "cloudgraphd address")
	tenant := fs.String("tenant", "", "query this tenant realm's analysis plane instead of the default")
	fs.Parse(args)
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: graphctl query [-addr host:port] [-tenant name] <analysis> [<epoch>|<rfc3339-time>|latest]")
		os.Exit(2)
	}
	// The selector may be a raw epoch, "latest", or an RFC3339 timestamp
	// resolved server-side through the timeline and the durable history
	// index; validate locally only what would break the line protocol.
	selector := "latest"
	if fs.NArg() == 2 {
		selector = fs.Arg(1)
		if !strings.EqualFold(selector, "latest") {
			if n, err := strconv.ParseUint(selector, 10, 64); err == nil && n == 0 {
				log.Fatalf("bad epoch %q: epochs start at 1", selector)
			} else if err != nil {
				if _, terr := time.Parse(time.RFC3339, selector); terr != nil {
					log.Fatalf("bad selector %q: want a positive epoch, an RFC3339 time or \"latest\"", selector)
				}
			}
		}
	}
	client, err := analytics.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if *tenant != "" {
		if err := client.Tenant(*tenant); err != nil {
			log.Fatal(err)
		}
	}
	res, err := client.QuerySelector(fs.Arg(0), selector)
	if err != nil {
		log.Fatal(err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, res.Result, "", "  "); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analysis %s @ epoch %d\n%s\n", res.Analysis, res.Epoch, pretty.String())
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	collapse, facet := buildFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: graphctl diff [flags] <old> <new>")
		os.Exit(2)
	}
	old := buildGraph(readRecords(fs.Arg(0)), *collapse, *facet)
	cur := buildGraph(readRecords(fs.Arg(1)), *collapse, *facet)
	d := graph.Diff(old, cur)
	fmt.Printf("byte drift (rel L1): %.4f\n", d.ByteChange)
	fmt.Printf("nodes: +%d -%d   pairs: +%d -%d\n",
		len(d.AddedNodes), len(d.RemovedNodes), len(d.AddedPairs), len(d.RemovedPairs))
	show := func(label string, pairs []graph.UndirectedEdge) {
		for i, e := range pairs {
			if i == 10 {
				fmt.Printf("  … and %d more\n", len(pairs)-10)
				break
			}
			fmt.Printf("  %s %s <-> %s (%d bytes)\n", label, e.A, e.B, e.Bytes)
		}
	}
	show("+", d.AddedPairs)
	show("-", d.RemovedPairs)
}

func cmdWindows(args []string) {
	fs := flag.NewFlagSet("windows", flag.ExitOnError)
	window := fs.Duration("window", time.Hour, "window size")
	file := parseArgs(fs, args)
	recs := readRecords(file)
	w := core.NewWindower(*window, graph.BuilderOptions{})
	for _, r := range recs {
		w.Add(r)
	}
	gs := w.Flush()
	scores := summarize.ScoreWindows(gs, summarize.AnomalyOptions{})
	fmt.Println("window start            nodes  edges      bytes    drift  anomalous")
	for i, g := range gs {
		st := g.ComputeStats()
		fmt.Printf("%-22s %6d %6d %10d   %.4f  %v\n",
			g.Start.UTC().Format("2006-01-02T15:04Z"), st.Nodes, st.Edges, st.Bytes,
			scores[i].Drift, scores[i].Anomalous)
	}
}

func cmdAttribution(args []string) {
	fs := flag.NewFlagSet("attribution", flag.ExitOnError)
	collapse, facet := buildFlags(fs)
	file := parseArgs(fs, args)
	g := buildGraph(readRecords(file), *collapse, *facet)
	a := model.Attribute(g)
	fmt.Println(a.Headline)
	fmt.Printf("  chatty cliques     %5.1f%%\n", 100*a.CliqueShare)
	fmt.Printf("  hub and spoke      %5.1f%%\n", 100*a.HubShare)
	fmt.Printf("  long-tail remotes  %5.1f%%\n", 100*a.CollapsedShare)
	fmt.Printf("  scatter            %5.1f%%\n", 100*a.ScatterShare)
}

func cmdArchive(args []string) {
	fs := flag.NewFlagSet("archive", flag.ExitOnError)
	window := fs.Duration("window", time.Hour, "window size")
	dir := fs.String("store", "history", "history directory to append to (created if missing)")
	file := parseArgs(fs, args)
	recs := readRecords(file)
	w := core.NewWindower(*window, graph.BuilderOptions{})
	for _, r := range recs {
		w.Add(r)
	}
	gs := w.Flush()
	if err := archiveWindows(*dir, gs); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "archived %d window(s) to %s\n", len(gs), *dir)
}

// archiveWindows appends gs to the history in dir under the epochs after
// its last one, so archiving into an existing directory appends.
func archiveWindows(dir string, gs []*graph.Graph) error {
	hs, err := histstore.Open(dir, histstore.Options{})
	if err != nil {
		return err
	}
	epoch := hs.LastEpoch()
	for _, g := range gs {
		epoch++
		if err := hs.Append(epoch, g); err != nil {
			//lint:allow errdrop best-effort close; the Append error is the one the caller needs
			hs.Close()
			return err
		}
	}
	return hs.Close()
}

// historyWindows loads the window-resolution records of the history in
// dir that overlap [from, to), in epoch order. Windows a daemon's
// compactor already folded into roll-ups are not among them.
func historyWindows(dir string, from, to time.Time) ([]*graph.Graph, error) {
	// Open creates a missing directory; a read must not.
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	hs, err := histstore.Open(dir, histstore.Options{})
	if err != nil {
		return nil, err
	}
	var gs []*graph.Graph
	err = hs.Replay(func(_ uint64, g *graph.Graph) error {
		if g.End.After(from) && g.Start.Before(to) {
			gs = append(gs, g)
		}
		return nil
	})
	if cerr := hs.Close(); err == nil {
		err = cerr
	}
	return gs, err
}

func cmdHistory(args []string) {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	from := fs.Int64("from", 0, "unix start of the range (0 = beginning)")
	to := fs.Int64("to", 1<<62, "unix end of the range")
	dir := parseArgs(fs, args)
	gs, err := historyWindows(dir, time.Unix(*from, 0).UTC(), time.Unix(*to, 0).UTC())
	if err != nil {
		log.Fatal(err)
	}
	if len(gs) == 0 {
		log.Fatal("no windows in range")
	}
	scores := summarize.ScoreWindows(gs, summarize.AnomalyOptions{})
	fmt.Println("window start            nodes  edges      bytes    drift  anomalous")
	for i, g := range gs {
		st := g.ComputeStats()
		fmt.Printf("%-22s %6d %6d %10d   %.4f  %v\n",
			g.Start.UTC().Format("2006-01-02T15:04Z"), st.Nodes, st.Edges, st.Bytes,
			scores[i].Drift, scores[i].Anomalous)
	}
	if len(gs) >= 2 {
		d := graph.Diff(gs[0], gs[len(gs)-1])
		fmt.Printf("first->last: drift %.4f, pairs +%d -%d, nodes +%d -%d\n",
			d.ByteChange, len(d.AddedPairs), len(d.RemovedPairs), len(d.AddedNodes), len(d.RemovedNodes))
	}
}
