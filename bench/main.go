// Command bench is cloudgraph's scoreboard: it drives a real cloudgraphd
// child over TCP with seeded, in-process generated traffic, reports the
// end-to-end metrics a user of the daemon would see, checks the daemon's
// answers against an in-process reference, and — on traced runs — times
// every layer from outside. BENCHMARK.json at the repository root names
// the workloads, the metrics and their regression bounds; README.md in
// this directory defines them.
//
// Usage (from the repository root; `go -C bench run . <flags>` works too):
//
//	bash bench/run.sh                          full report: every workload, untraced then traced
//	bash bench/run.sh -workload live-k8s       one run; the last stdout line is the JSON result
//	         [-seed 1] [-seconds 16] [-trace 0|1]
//	bash bench/run.sh -repeat 10 -out base     ten seeds per workload into bench/out/runs-base.json
//	bash bench/run.sh -compare a.json b.json   medians, quartiles, delta against the bound, verdict
//	bash bench/run.sh -layers                  only the in-process per-layer pass
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// manifest is BENCHMARK.json: the contract later PRs are judged by.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef is one metric's declaration; per-layer metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// envInfo is stamped on every output: sandbox numbers mean little
// without the machine and the code they came from.
type envInfo struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
}

// env is where the benchmark runs: the checkout, its scratch directory
// and the daemon binary built from it.
type env struct {
	root    string // cloudgraph module root
	workDir string // <root>/.bench_build: binaries and per-run data-dirs
	outDir  string // <root>/bench/out: traces and -repeat results
	bin     string // the cloudgraphd built from this checkout
	buildS  float64
	info    envInfo
	man     *manifest
	// sizes are the workloads' traffic mixes and fine/coarse the layers
	// pass's datasets; the smoke test swaps in toy ones.
	sizes        map[string]sizing
	fine, coarse dataset

	mu   sync.Mutex
	live map[*daemon]struct{} // running children, for the interrupt path
}

// track and untrack keep the set of running daemons current.
func (e *env) track(d *daemon) {
	e.mu.Lock()
	e.live[d] = struct{}{}
	e.mu.Unlock()
}

func (e *env) untrack(d *daemon) {
	e.mu.Lock()
	delete(e.live, d)
	e.mu.Unlock()
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root:    root,
		workDir: filepath.Join(root, ".bench_build"),
		outDir:  filepath.Join(root, "bench", "out"),
		info:    envInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"},
		sizes:   workloads,
		fine:    usvc,
		coarse:  k8s,
		live:    make(map[*daemon]struct{}),
	}
	if e.man, err = loadManifest(root); err != nil {
		return nil, err
	}
	// The driver's checkout is not a git repository; the commit is then
	// simply unknown.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.info.Commit = strings.TrimSpace(string(out))
	}
	return e, nil
}

// build compiles the daemon; everything that needs one calls it first.
func (e *env) build() error {
	bin, d, err := buildDaemon(e.root, filepath.Join(e.workDir, "bin"))
	if err != nil {
		return err
	}
	e.bin, e.buildS = bin, d.Seconds()
	return nil
}

// abort ends every running daemon and removes what the interrupted run
// left in the work directory.
func (e *env) abort() {
	e.mu.Lock()
	for d := range e.live {
		_ = d.cmd.Process.Kill() // already gone is fine; nobody is left to Wait for it
	}
	e.mu.Unlock()
	for _, pat := range []string{"run-*", "layers-*"} {
		dirs, _ := filepath.Glob(filepath.Join(e.workDir, pat)) // the pattern is constant and well-formed
		for _, d := range dirs {
			_ = os.RemoveAll(d) // scratch; a leftover only wastes space
		}
	}
}

// run executes one workload and, when traced, the layers pass, merging
// the per-layer metrics into the report.
func (e *env) run(name string, seed int64, seconds float64, traced bool) (*report, error) {
	sz, ok := e.sizes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadOrder, ", "))
	}
	rep, err := runWorkload(e, name, sz, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	if traced {
		l, err := runLayers(e, seed, rep.rec)
		if err != nil {
			return nil, err
		}
		rep.addLayers(l, sz.data == e.fine)
		if err := e.writeTrace(rep.rec, name); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// writeTrace dumps a run's spans to bench/out/trace-<name>.json.
func (e *env) writeTrace(rec *recorder, name string) error {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	return rec.write(filepath.Join(e.outDir, "trace-"+name+".json"), e.info, name)
}

// addLayers merges a layers pass into the report and derives
// layers.accounted_pct from it and the run's own work counts.
func (r *report) addLayers(l *layerRun, fineGraph bool) {
	suffix := ""
	if fineGraph {
		suffix = ".usvc"
	}
	for name, m := range l.metrics {
		r.Metrics[name] = m
	}
	for name, n := range l.samples {
		r.Samples[name] = n
	}
	r.set("layers.accounted_pct", accountedPct(l.metrics, r.work, suffix), "%")
}

// print lists every metric the run measured, by name, with its unit and —
// for timings — its sample count, flagging tail percentiles the sample
// cannot support.
func (r *report) print() {
	fmt.Printf("== %s seed=%d seconds=%g traced=%v | nproc=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Env.NProc, r.Env.GoVersion, r.Env.Commit)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-46s %14.4f %s", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
			for _, p := range []float64{90, 99} {
				if strings.HasSuffix(name, fmt.Sprintf("_p%.0f", p)) && beyond(n, p) < 10 {
					line += "  [fewer than 10 samples beyond this percentile]"
				}
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("operations: attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, note := range r.Notes {
		fmt.Println("  failed:", note)
	}
}

// result is the driver's contract: the last stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLine selects the metrics BENCHMARK.json lists for this kind of
// run — end-to-end when untraced, per-layer when traced — and fails on
// one the run did not produce or whose unit disagrees.
func (e *env) resultLine(r *report) (string, error) {
	defs := e.man.EndToEnd
	if r.Traced {
		defs = e.man.PerLayer
	}
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			return "", fmt.Errorf("BENCHMARK.json names %q, which the run did not measure", d.Name)
		case m.Unit != d.Unit:
			return "", fmt.Errorf("metric %q is measured in %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return "", fmt.Errorf("metric %q is not finite", d.Name)
		}
		res.Metrics[d.Name] = m
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// fullReport is the no-argument mode: every workload untraced, then
// traced, and the tracing overhead between the two.
func (e *env) fullReport(seed int64, seconds float64) error {
	correct := true
	for _, name := range workloadOrder {
		plain, err := e.run(name, seed, seconds, false)
		if err != nil {
			return err
		}
		plain.print()
		traced, err := e.run(name, seed, seconds, true)
		if err != nil {
			return err
		}
		traced.print()
		a, b := plain.Metrics["cpu_s_per_mrec"].Value, traced.Metrics["cpu_s_per_mrec"].Value
		fmt.Printf("%-46s %14.4f %%  (traced %.4f vs untraced %.4f s/Mrec)\n\n",
			"loadgen.trace_overhead_pct", 100*(b/a-1), b, a)
		correct = correct && plain.Correct && traced.Correct
	}
	if !correct {
		return errors.New("a correctness check failed")
	}
	return nil
}

// repeat runs the workloads n times on consecutive seeds and writes the
// reports as one JSON list for -compare.
func (e *env) repeat(names []string, n int, seed int64, seconds float64, label string) error {
	var reports []*report
	for i := 0; i < n; i++ {
		for _, name := range names {
			rep, err := e.run(name, seed+int64(i), seconds, false)
			if err != nil {
				return err
			}
			fmt.Printf("%s seed=%d: failed=%d/%d\n", name, rep.Seed, rep.Failed, rep.Attempted)
			reports = append(reports, rep)
		}
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.outDir, "runs-"+label+".json")
	b, err := json.MarshalIndent(reports, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return compare(e.man, reports, reports)
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	out      string
	compare  bool
	layers   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the JSON result line last: "+strings.Join(workloadOrder, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "moves the generated stream in time and seeds the query schedule and the checked epochs; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured interval (default: run_seconds from BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 records the harness's spans, runs the layers pass and reports the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run this many times on consecutive seeds and write bench/out/runs-<out>.json")
	flag.StringVar(&o.out, "out", "latest", "label of the -repeat results file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -repeat results files given as arguments")
	flag.BoolVar(&o.layers, "layers", false, "run only the in-process per-layer pass")
	flag.Parse()
	if err := realMain(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(o options, args []string) error {
	e, err := newEnv()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(e.man.RunSeconds)
	}
	if o.compare {
		if len(args) != 2 {
			return errors.New("usage: -compare a.json b.json")
		}
		return compareFiles(e.man, args[0], args[1])
	}

	// An interrupted or overlong run must not leave a daemon behind.
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var watchdog <-chan time.Time
	if o.workload != "" && o.repeat == 0 {
		watchdog = time.After(170 * time.Second) // the driver allows a single run 180 s
	}
	done := make(chan error, 1)
	go func() { done <- dispatch(e, o) }()
	select {
	case err := <-done:
		return err
	case s := <-sig:
		err = fmt.Errorf("interrupted by %v", s)
	case <-watchdog:
		err = errors.New("run exceeded 170 s")
	}
	e.abort()
	return err
}

func dispatch(e *env, o options) error {
	if o.layers {
		l, err := runLayers(e, o.seed, nil)
		if err != nil {
			return err
		}
		rep := &report{Workload: "layers", Seed: o.seed, Env: e.info, Correct: true, Metrics: l.metrics, Samples: l.samples}
		rep.print()
		return nil
	}
	if err := e.build(); err != nil {
		return err
	}
	switch {
	case o.repeat > 0 && o.workload != "":
		return e.repeat([]string{o.workload}, o.repeat, o.seed, o.seconds, o.out)
	case o.repeat > 0:
		return e.repeat(workloadOrder, o.repeat, o.seed, o.seconds, o.out)
	case o.workload == "":
		return e.fullReport(o.seed, o.seconds)
	}
	rep, err := e.run(o.workload, o.seed, o.seconds, o.trace == 1)
	if err != nil {
		return err
	}
	rep.print()
	line, err := e.resultLine(rep)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !rep.Correct {
		return errors.New("a correctness check failed")
	}
	return nil
}
