package main

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"cloudgraph/internal/analytics"
	"cloudgraph/internal/runner"
)

// TestRestartServesRecoveredWindows: after a SIGKILL and restart on the
// same -data-dir, STATS counts the recovered windows and every analysis
// answers QUERY latest at the newest recovered epoch, as /graphz renders
// it: recovery rebuilds the realm's timeline and runner results.
func TestRestartServesRecoveredWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real daemons")
	}
	bin := buildDaemon(t)
	recs := crashStream(t)
	const n = 30 // one-minute windows in the half hour fed before the crash
	cut := sort.Search(len(recs), func(i int) bool {
		return !recs[i].Time.Before(streamStart.Add(n * time.Minute))
	})
	dataDir := filepath.Join(t.TempDir(), "hist")
	a := startDaemon(t, bin, dataDir, 0)
	feed(t, a.addr, recs[:cut])
	a.kill()

	b := startDaemon(t, bin, dataDir, 0, withOps)
	client, err := analytics.Dial(b.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows != n {
		t.Fatalf("STATS after restart = %+v, want %d windows", st, n)
	}
	for _, r := range runner.DefaultRunners() {
		res, err := client.Query(r.Name(), 0)
		if err != nil || res.Epoch != n {
			t.Fatalf("QUERY %s latest after restart = epoch %d, %v; want epoch %d", r.Name(), res.Epoch, err, n)
		}
		if r.Name() != "summarize" {
			continue
		}
		var sum runner.SummarizeResult
		if err := json.Unmarshal(res.Result, &sum); err != nil || sum.Headline == "" {
			t.Errorf("QUERY summarize latest after restart = %s, %v; want a headline", res.Result, err)
		}
	}
	for _, path := range []string{"/graphz", "/graphz?tenant=default"} {
		resp, err := http.Get("http://" + b.opsAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s after restart: %s: %s", path, resp.Status, body)
		}
	}
}
