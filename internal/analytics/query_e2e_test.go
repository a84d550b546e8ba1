package analytics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/runner"
)

// liveServer starts a one-tenant realm server the way cloudgraphd runs:
// the default tenant's plane on its engine bus. It returns that
// plane for in-process cross-checks.
func liveServer(t *testing.T, window time.Duration) (*Server, *runner.Plane) {
	t.Helper()
	s, m := realmServer(t, window)
	return s, m.Default().Plane()
}

// TestQueryEndToEnd exercises the full live path over TCP: ingest a
// seeded hour, FLUSH, then QUERY each analysis at latest and at a pinned
// epoch — the daemon workflow behind `graphctl query segment latest`.
func TestQueryEndToEnd(t *testing.T) {
	s, plane := liveServer(t, 15*time.Minute)
	recs := hourOf(t, testCluster(t), t0)

	client, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Flush(); err != nil {
		t.Fatal(err)
	}

	// Latest must answer for every registered analysis, with a pinned
	// epoch equal to the newest completed window's.
	_, newest := plane.Epochs("segment")
	if newest == 0 {
		t.Fatal("plane saw no windows after FLUSH")
	}
	for _, name := range plane.Runners() {
		res, err := client.Query(name, 0)
		if err != nil {
			t.Fatalf("QUERY %s latest: %v", name, err)
		}
		if res.Analysis != name || res.Epoch != newest || len(res.Result) == 0 {
			t.Fatalf("QUERY %s latest = %+v, want epoch %d with a result", name, res, newest)
		}
	}

	// A pinned epoch must re-answer byte-identically to itself and match
	// the plane's in-process view.
	wire, err := client.Query("segment", newest)
	if err != nil {
		t.Fatal(err)
	}
	_, direct, err := plane.Query("segment", newest)
	if err != nil {
		t.Fatal(err)
	}
	if string(wire.Result) != string(direct) {
		t.Fatalf("wire result diverges from plane:\n  wire:  %s\n  plane: %s", wire.Result, direct)
	}
	var seg runner.SegmentResult
	if err := json.Unmarshal(wire.Result, &seg); err != nil {
		t.Fatalf("QUERY result is not a SegmentResult: %v", err)
	}
	if seg.NumSegments < 1 {
		t.Fatalf("segmentation found no segments: %+v", seg)
	}

	// Error paths answer ERR without dropping the connection.
	for _, bad := range []struct{ cmd, wantErr string }{
		{"QUERY nope latest", "unknown analysis"},
		{"QUERY segment 999999", "no result at epoch"},
		{"QUERY segment zero", "bad selector"},
		{"QUERY segment 0", "bad epoch"},
		{"QUERY segment 2031-01-01T00:00:00Z", "no window covers"},
		{"QUERY Segment latest", "bad analysis name"},
		{"QUERY", "usage"},
	} {
		if err := client.jsonCmd(bad.cmd, &struct{}{}); err == nil || !strings.Contains(err.Error(), bad.wantErr) {
			t.Fatalf("%q: err = %v, want %q", bad.cmd, err, bad.wantErr)
		}
	}
	// The retired hand-written analysis commands are unknown.
	for _, cmd := range []string{"WINDOWS", "LEARN", "SEGMENTS", "MONITOR", "SUMMARY", "ANOMALIES"} {
		if err := client.jsonCmd(cmd, &json.RawMessage{}); err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Errorf("%s: err = %v, want an unknown-command ERR", cmd, err)
		}
	}
	// The connection survived the ERRs: latest still answers, and STATS
	// counts the records and the windows the timeline retains.
	if _, err := client.Query("summarize", 0); err != nil {
		t.Fatalf("connection unusable after ERR responses: %v", err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != int64(len(recs)) || st.Windows != plane.Timeline().Len() || st.Windows == 0 {
		t.Errorf("stats = %+v, want %d records and the timeline's %d windows", st, len(recs), plane.Timeline().Len())
	}
}
