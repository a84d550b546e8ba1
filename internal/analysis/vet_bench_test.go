package analysis

import (
	"testing"
	"time"
)

// loadModulePkgs loads the real module once per test/benchmark that needs
// it; type-checking dominates, so callers reuse the result across
// iterations where possible.
func loadModulePkgs(tb testing.TB) []*Package {
	tb.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		tb.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		tb.Fatal(err)
	}
	return pkgs
}

// BenchmarkVetModule measures one full-suite run over the already-loaded
// module: the analyzer cost CI pays on every push, load excluded (that is
// the compiler's price, not the suite's).
func BenchmarkVetModule(b *testing.B) {
	pkgs := loadModulePkgs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(Suite(), pkgs)
	}
}

// BenchmarkVetModuleWithLoad includes the parse + type-check, the true
// end-to-end cost of `go run ./cmd/cloudgraph-vet ./...`.
func BenchmarkVetModuleWithLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs := loadModulePkgs(b)
		Run(Suite(), pkgs)
	}
}

// vetModuleBudget is the pinned wall-clock ceiling for one end-to-end
// full-module run (load + full suite). The measured cost on the CI class
// of machine is well under a second; the ceiling leaves ~5x headroom for
// slower runners while still catching an accidental quadratic blowup in
// the module-wide analyzers (summaries iterate to fixed points — a bad
// meet would show up as seconds, not milliseconds).
const vetModuleBudget = 20 * time.Second

// TestVetModuleBudget fails when a full end-to-end run exceeds the pinned
// budget. CI runs it by name without -race; -short skips it like the other
// whole-module passes, and -race skips it because the detector's slowdown
// is not the engine's.
func TestVetModuleBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module run is slow under -short")
	}
	if raceEnabled {
		t.Skip("wall-clock budget is meaningless under the race detector; CI's non-race budget step enforces it")
	}
	start := time.Now()
	pkgs := loadModulePkgs(t)
	findings := Run(Suite(), pkgs)
	elapsed := time.Since(start)
	t.Logf("full-module vet: %d packages, %d findings in %v (budget %v)", len(pkgs), len(findings), elapsed, vetModuleBudget)
	if elapsed > vetModuleBudget {
		t.Fatalf("full-module vet took %v, over the %v budget — a module-wide analyzer regressed", elapsed, vetModuleBudget)
	}
}
