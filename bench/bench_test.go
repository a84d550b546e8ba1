package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// toy shrinks a workload to smoke-test size: the portal preset (~160
// records a minute), 20 ms ticks, and — where the real workload preloads
// past the planes' result memory — just enough windows to leave epoch 4
// on disk.
func toy(sz sizing) sizing {
	sz.data = dataset{"portal", 0.25}
	if sz.tick > 0 {
		sz.tick = 20 * time.Millisecond
	}
	if sz.preload > 1 {
		sz.preload = resultMemory + 4
		sz.diskEvery = 10
	}
	return sz
}

// toyEnv is an env whose scratch lives in the test's temp dir and whose
// workloads and layers pass run at toy size.
func toyEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.workDir, e.outDir = t.TempDir(), t.TempDir()
	e.fine, e.coarse = dataset{"portal", 0.25}, dataset{"portal", 0.25}
	e.sizes = make(map[string]sizing)
	for name, sz := range workloads {
		e.sizes[name] = toy(sz)
	}
	return e
}

// assertReaped fails if a daemon is still tracked or a data-dir survived.
func assertReaped(t *testing.T, e *env) {
	t.Helper()
	e.mu.Lock()
	live := len(e.live)
	e.mu.Unlock()
	if live != 0 {
		t.Errorf("%d daemons still running", live)
	}
	for _, pat := range []string{"run-*", "layers-*"} {
		left, err := filepath.Glob(filepath.Join(e.workDir, pat))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Errorf("scratch directories left behind: %v", left)
		}
	}
}

// TestSmoke runs every workload at toy size against a real daemon, traced
// and untraced, and holds the output to BENCHMARK.json: every metric it
// names is emitted, finite and in the declared unit, and nothing is
// emitted that it does not name.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns cloudgraphd")
	}
	e := toyEnv(t)
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	named := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), e.man.EndToEnd...), e.man.PerLayer...) {
		if named[d.Name] {
			t.Errorf("BENCHMARK.json names %q twice", d.Name)
		}
		named[d.Name] = true
	}
	if len(e.man.Workloads) != len(workloadOrder) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(e.man.Workloads), len(workloadOrder))
	}
	for _, w := range e.man.Workloads {
		for _, traced := range []bool{false, true} {
			rep, err := e.run(w.Name, 1, 0.1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, rep.Failed, rep.Attempted, rep.Notes)
			}
			// resultLine checks presence, unit and finiteness of every
			// metric the manifest lists for this kind of run.
			if _, err := e.resultLine(rep); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			for name, m := range rep.Metrics {
				if !named[name] {
					t.Errorf("%s traced=%v: emits %q, which BENCHMARK.json does not name", w.Name, traced, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace written: %v", w.Name, err)
				}
			}
			assertReaped(t, e)
		}
	}
}

// TestFailedStartCleansUp: a daemon that dies during start-up must not
// leave its data-dir or a tracked child behind.
func TestFailedStartCleansUp(t *testing.T) {
	e := toyEnv(t)
	e.bin = "/bin/false"
	if _, err := e.run("live-k8s", 1, 0.1, false); err == nil {
		t.Fatal("a daemon that exits at once was accepted")
	}
	assertReaped(t, e)
}

// TestQuartilesMatchPython pins the spread arithmetic to what
// statistics.quantiles(values, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 6, 5, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
