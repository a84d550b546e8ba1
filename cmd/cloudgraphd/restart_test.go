package main

import (
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"cloudgraph/internal/analytics"
)

// TestRestartServesRecoveredWindows: after a SIGKILL and restart on the
// same -data-dir, the legacy readers answer from the recovered windows, as
// QUERY does — they read the realm's timeline, which recovery rebuilds.
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
	if st.Windows != n || st.Nodes == 0 || st.Headline == "" {
		t.Fatalf("STATS after restart = %+v, want %d windows with a headline", st, n)
	}
	ws, err := client.Windows()
	if err != nil || len(ws) != n {
		t.Fatalf("WINDOWS after restart = %d entries, %v; want %d", len(ws), err, n)
	}
	if last := ws[n-1]; last.Start != streamStart.Add((n-1)*time.Minute).Format("2006-01-02T15:04:05Z") || last.Nodes == 0 {
		t.Errorf("newest recovered window = %+v", last)
	}
	if sum, err := client.Summary(); err != nil || sum.Headline != st.Headline {
		t.Errorf("SUMMARY after restart = %+v, %v; want STATS' headline %q", sum, err, st.Headline)
	}
	if learn, err := client.Learn(); err != nil || learn.Nodes == 0 {
		t.Errorf("LEARN after restart = %+v, %v", learn, err)
	}
	if _, err := client.Monitor(); err != nil {
		t.Errorf("MONITOR after restart: %v", err)
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
