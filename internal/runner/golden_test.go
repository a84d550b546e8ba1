package runner

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/nicsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/default_runners.golden from this build")

// goldenWindows returns the first `minutes` one-minute windows of a preset
// cluster, the way a shard windower hands them to the engine.
func goldenWindows(t *testing.T, preset string, scale float64, minutes int) []*graph.Graph {
	t.Helper()
	spec, err := cluster.Preset(preset, scale)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []*graph.Graph
	w := core.NewWindower(time.Minute, graph.BuilderOptions{})
	w.OnComplete = func(g *graph.Graph) { out = append(out, g) }
	_, err = c.Run(t0, minutes, nicsim.CollectorFunc(func(batch []flowlog.Record) error {
		for _, r := range batch {
			w.Add(r)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if len(out) != minutes {
		t.Fatalf("%s: %d windows from %d minutes", preset, len(out), minutes)
	}
	return out
}

// runDefaults drives fresh default runners over the windows and renders
// every result as one "preset/runner@epoch json" line.
func runDefaults(t *testing.T, buf *bytes.Buffer, preset string, windows []*graph.Graph) {
	t.Helper()
	for _, r := range DefaultRunners() {
		for i, g := range windows {
			r.OnSnapshot(uint64(i+1), g)
			res, err := json.Marshal(r.Result())
			if err != nil {
				t.Fatalf("%s/%s@%d: %v", preset, r.Name(), i+1, err)
			}
			fmt.Fprintf(buf, "%s/%s@%d %s\n", preset, r.Name(), i+1, res)
		}
	}
}

// TestDefaultRunnersGolden pins the marshaled results of the four default
// runners over 10 k8spaas and 10 microservicebench minute windows to the
// bytes the pre-index-space kernels produced (the file was generated on the
// commit before the analysis kernels moved onto graph.Undirected).
func TestDefaultRunnersGolden(t *testing.T) {
	path := filepath.Join("testdata", "default_runners.golden")
	var buf bytes.Buffer
	for _, ds := range []struct {
		preset string
		scale  float64
	}{{"k8spaas", 0.25}, {"microservicebench", 0.25}} {
		runDefaults(t, &buf, ds.preset, goldenWindows(t, ds.preset, ds.scale, 10))
	}
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, exp := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range got {
			if i >= len(exp) || !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, got[i], exp[min(i, len(exp)-1)])
			}
		}
		t.Fatalf("golden mismatch: %d lines, want %d", len(got), len(exp))
	}
}

// TestRepeatRunsAgree drives fresh default runners over the golden
// stream 21 times and requires every run's answers to be byte-equal to the
// first: no analysis may depend on map iteration order.
func TestRepeatRunsAgree(t *testing.T) {
	streams := [][]*graph.Graph{
		goldenWindows(t, "k8spaas", 0.25, 10),
		goldenWindows(t, "microservicebench", 0.25, 10),
	}
	var first []byte
	for run := range 21 {
		var buf bytes.Buffer
		for i, ws := range streams {
			runDefaults(t, &buf, fmt.Sprint(i), ws)
		}
		if run == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d answers differ from run 0", run)
		}
	}
}

// TestSummarizeAllocBudget gates the summarize runner's allocations per
// sealed k8spaas minute window — OnSnapshot plus the marshal of its result,
// as Plane.step runs it. The count is deterministic (the Node-keyed kernels
// this replaced made ≈73K allocations per window; the index-space ones make
// under a hundred), so it is a build invariant, not a timing.
func TestSummarizeAllocBudget(t *testing.T) {
	const budget = 300
	windows := goldenWindows(t, "k8spaas", 0.25, 3)
	r := NewSummarize()
	r.OnSnapshot(1, windows[0])
	var epoch uint64 = 1
	avg := testing.AllocsPerRun(20, func() {
		epoch++
		r.OnSnapshot(epoch, windows[epoch%uint64(len(windows))])
		if _, err := json.Marshal(r.Result()); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("summarize allocates %.0f times per k8spaas minute window, budget %d", avg, budget)
	}
	t.Logf("summarize: %.0f allocs per window (budget %d)", avg, budget)
}

// TestWindowAnalysisAllocBudget gates what the whole default analysis plane
// allocates per sealed k8spaas minute window: timeline append plus all
// four runners' OnSnapshot, Result and marshal, through Plane.Restore. The
// count is deterministic up to map growth: segmenting each window once
// (shared by the segment and policy runners) and ranking only the pairs
// the kNN filter keeps took it from ≈2.37K to ≈1.27K; folding the roll-up
// in CSR, one shared undirected view per window and churn without member
// lists took it to ≈1.19K; a timeline without roll-ups or snapshot copies
// took it to ≈1.17K (≈1.18K under the race detector). A drift step that
// only counts, views built in the arrays of the view they evict, the
// chatty-clique search's buffers kept across windows and Louvain's input
// cut from one slab took it to ≈370 allocations and ≈190 KB, from ≈580
// KB. Segmenting in a Scratch the segMemo keeps (the counting kernels'
// arrays, kNN heaps, survivor slice, radix buffers and Louvain's input
// graph reused) took it to ≈358 allocations and ≈58 KB (≈70 KB under the
// race detector); the byte budget is that race figure plus about 15 %.
// The plane retains fewer windows than the loop runs, so result and
// timeline eviction are inside the measured loop.
func TestWindowAnalysisAllocBudget(t *testing.T) {
	const budget, bytesBudget = 420, 80 << 10
	windows := goldenWindows(t, "k8spaas", 0.25, 3)
	plane := New(Config{History: 8})
	plane.Restore(1, windows[0])
	var epoch uint64 = 1
	step := func() {
		epoch++
		plane.Restore(epoch, windows[epoch%uint64(len(windows))])
	}
	avg := testing.AllocsPerRun(20, step)
	const runs = 30
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		step()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if avg > budget {
		t.Fatalf("the default runners allocate %.0f times per k8spaas minute window, budget %d", avg, budget)
	}
	if bytes > bytesBudget {
		t.Fatalf("the default runners allocate %d bytes per k8spaas minute window, budget %d", bytes, bytesBudget)
	}
	t.Logf("default runners: %.0f allocs and %d bytes per window (budgets %d and %d)", avg, bytes, budget, bytesBudget)
}
