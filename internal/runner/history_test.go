package runner

import (
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/histstore"
)

// TestQueryFallsThroughToDisk pins the acceptance property of the durable
// history wiring: an epoch evicted from the plane's in-memory result
// retention is still answerable — QUERY falls through to the history
// store, replays the recorded windows through a fresh runner, and the
// re-derived result is byte-equal to what a plane with unlimited
// retention holds in memory for the same epoch.
func TestQueryFallsThroughToDisk(t *testing.T) {
	recs := seededStream(t)
	const window = 5 * time.Minute

	// The reference plane retains every epoch in memory.
	full := New(Config{})
	windows := full.Replay(recs, ReplayOptions{Window: window})
	if len(windows) < 8 {
		t.Fatalf("stream produced only %d windows", len(windows))
	}

	// The constrained plane keeps just 3 epochs of results but records
	// every window durably — the cloudgraphd -data-dir arrangement.
	hs, err := histstore.Open(t.TempDir(), histstore.Options{SegmentWindows: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	short := New(Config{History: 3})
	short.Replay(recs, ReplayOptions{Window: window})
	for i, g := range windows {
		if err := hs.Append(uint64(i+1), g); err != nil {
			t.Fatalf("append window %d: %v", i+1, err)
		}
	}
	short.SetHistory(hs, nil)

	// Epochs below the retained ones must be gone from memory — the miss is
	// what we are testing. Every one of them, for every runner, pins the
	// lazily computed result at every replay depth, the first window (the
	// policy baseline) included.
	oldest, newest := short.Epochs("segment")
	if oldest <= 2 {
		t.Fatalf("oldest retained epoch %d; retention did not evict epoch 2", oldest)
	}

	for _, name := range short.Runners() {
		for epoch := uint64(1); epoch < oldest; epoch++ {
			ep, disk, err := short.Query(name, epoch)
			if err != nil {
				t.Fatalf("QUERY %s@%d via disk: %v", name, epoch, err)
			}
			if ep != epoch {
				t.Fatalf("QUERY %s@%d answered epoch %d", name, epoch, ep)
			}
			_, mem, err := full.Query(name, epoch)
			if err != nil {
				t.Fatal(err)
			}
			if string(disk) != string(mem) {
				t.Fatalf("%s@%d: disk result diverges from in-memory:\n  disk: %s\n  mem:  %s", name, epoch, disk, mem)
			}
		}
	}

	// In-memory epochs still answer from memory (same bytes either way).
	if _, _, err := short.Query("segment", newest); err != nil {
		t.Fatalf("QUERY newest from memory: %v", err)
	}

	// Epochs past the recorded history stay an error, and the error names
	// the range so operators can see what is on disk.
	if _, _, err := short.Query("segment", newest+100); err == nil ||
		!strings.Contains(err.Error(), "history holds") {
		t.Fatalf("QUERY far-future epoch: err = %v, want history range error", err)
	}
}

// TestDiskQueryAllocBudget gates the allocations of one disk QUERY at
// depth 8 — eight k8spaas minute windows read, decoded and stepped through
// a fresh runner, one result marshaled — averaged over the default runners.
// The count is deterministic up to map growth, so it is a build invariant,
// not a timing: decoding straight to CSR and computing one result per
// replay took it from ≈50.9K (map-form decode, every window analysed) to
// ≈1.1K.
func TestDiskQueryAllocBudget(t *testing.T) {
	const depth, budget = 8, 5000
	windows := goldenWindows(t, "k8spaas", 0.25, depth+1)
	hs, err := histstore.Open(t.TempDir(), histstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	for i, g := range windows {
		if err := hs.Append(uint64(i+1), g); err != nil {
			t.Fatal(err)
		}
	}
	plane := New(Config{History: 1})
	plane.Restore(uint64(len(windows)), windows[len(windows)-1])
	plane.SetHistory(hs, nil)
	names := plane.Runners()
	avg := testing.AllocsPerRun(3, func() {
		for _, name := range names {
			if _, _, err := plane.Query(name, depth); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(names))
	if avg > budget {
		t.Fatalf("a disk QUERY at depth %d allocates %.0f times, budget %d", depth, avg, budget)
	}
	t.Logf("disk QUERY at depth %d: %.0f allocs (budget %d)", depth, avg, budget)
}
