package main

import (
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/graph/graphtest"
	"cloudgraph/internal/histstore"
)

var t0 = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)

// hourWindow is a one-hour window starting h hours after t0 in which
// 10.0.0.1 talks to 10.0.0.<peer>.
func hourWindow(h int, peer byte, bytes uint64) *graph.Graph {
	m := graphtest.NewModel(graph.FacetIP)
	m.Start = t0.Add(time.Duration(h) * time.Hour)
	m.End = m.Start.Add(time.Hour)
	m.Add(graph.IPNode(netip.MustParseAddr("10.0.0.1")),
		graph.IPNode(netip.AddrFrom4([4]byte{10, 0, 0, peer})), graph.Counters{Bytes: bytes})
	return m.Graph()
}

// farFuture bounds an all-time range load.
var farFuture = time.Unix(1<<62, 0)

// TestAppendToExisting: archiving into a directory that already holds
// history appends under the following epochs.
func TestAppendToExisting(t *testing.T) {
	dir := t.TempDir()
	if err := archiveWindows(dir, []*graph.Graph{hourWindow(0, 2, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := archiveWindows(dir, []*graph.Graph{hourWindow(1, 3, 200)}); err != nil {
		t.Fatal(err)
	}
	got, err := historyWindows(dir, time.Time{}, farFuture)
	if err != nil || len(got) != 2 {
		t.Fatalf("after reopen: %d windows, %v", len(got), err)
	}
	if !got[1].Start.Equal(t0.Add(time.Hour)) {
		t.Errorf("second window start = %v", got[1].Start)
	}
	hs, err := histstore.Open(dir, histstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	for ep := uint64(1); ep <= 2; ep++ {
		if _, err := hs.Get(ep); err != nil {
			t.Errorf("Get(%d): %v", ep, err)
		}
	}
	if _, err := hs.Get(3); err != histstore.ErrNotFound {
		t.Errorf("Get(3) = %v, want ErrNotFound (epochs 1..2 only)", err)
	}
}

// TestRangeQuery: a range load returns exactly the windows overlapping
// [from, to), and a missing directory is an error, not a new history.
func TestRangeQuery(t *testing.T) {
	dir := t.TempDir()
	var gs []*graph.Graph
	for h := 0; h < 6; h++ {
		gs = append(gs, hourWindow(h, byte(2+h), uint64(100*(h+1))))
	}
	if err := archiveWindows(dir, gs); err != nil {
		t.Fatal(err)
	}
	got, err := historyWindows(dir, t0.Add(2*time.Hour), t0.Add(4*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("range windows = %d, want 2", len(got))
	}
	if !got[0].Start.Equal(t0.Add(2 * time.Hour)) {
		t.Errorf("first in range = %v", got[0].Start)
	}
	if _, err := historyWindows(filepath.Join(dir, "missing"), t0, t0.Add(time.Hour)); err == nil {
		t.Error("want error for a missing history directory")
	}
}

// TestHistoricalDiffFromStore is the §1 use case: load two past windows
// from history and ask "what changed?" — the first→last diff `graphctl
// history` prints.
func TestHistoricalDiffFromStore(t *testing.T) {
	dir := t.TempDir()
	if err := archiveWindows(dir, []*graph.Graph{hourWindow(0, 2, 100), hourWindow(1, 9, 500)}); err != nil {
		t.Fatal(err)
	}
	windows, err := historyWindows(dir, time.Time{}, farFuture)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.Diff(windows[0], windows[len(windows)-1])
	if len(d.AddedPairs) != 1 || len(d.RemovedPairs) != 1 {
		t.Errorf("historical diff = %+v", d)
	}
}
