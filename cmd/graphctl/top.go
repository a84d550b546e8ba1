package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"cloudgraph/internal/statusz"
)

// cmdTop is the live pipeline dashboard: it polls a daemon's
// /statusz?format=json and redraws the tenant table, each tenant's
// watermark, bus and SLO state each interval — `watch` for the freshness
// of the analysis plane. -n bounds the iterations (0 = until
// interrupted); -plain suppresses the ANSI clear-screen for logs and
// tests.
func cmdTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	ops := fs.String("ops", "127.0.0.1:9443", "cloudgraphd ops address (the -ops flag it was started with)")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	n := fs.Int("n", 0, "iterations before exiting (0 = run until interrupted)")
	plain := fs.Bool("plain", false, "no ANSI clear-screen between frames")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: graphctl top [-ops host:port] [-interval 2s] [-n 0]")
		os.Exit(2)
	}
	url := "http://" + *ops + "/statusz?format=json"
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; *n == 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		st, err := fetchStatus(client, url)
		if err != nil {
			log.Fatalf("polling %s: %v", url, err)
		}
		if !*plain {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear screen
		}
		renderTop(os.Stdout, st, url)
	}
}

func fetchStatus(client *http.Client, url string) (statusz.Status, error) {
	var st statusz.Status
	resp, err := client.Get(url)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("HTTP %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding status: %w", err)
	}
	return st, nil
}

// renderTop draws one dashboard frame.
func renderTop(w io.Writer, st statusz.Status, url string) {
	uptime := ""
	if st.UptimeSeconds > 0 {
		uptime = " · up " + (time.Duration(st.UptimeSeconds * float64(time.Second))).Round(time.Second).String()
	}
	fmt.Fprintf(w, "cloudgraph top — %s — %s%s\n\n", url, st.Time.Format("15:04:05"), uptime)

	if len(st.Tenants) > 0 {
		fmt.Fprintf(w, "%-18s %3s %10s %10s %10s %8s %9s %5s %7s %5s %6s %7s\n",
			"tenant", "w", "records", "graph", "disk", "ingest", "analysis", "queue", "sealed", "lag", "burned", "budget")
		for _, t := range st.Tenants {
			fmt.Fprintf(w, " %-17s %3d %10d %10s %10s %7.2fs %8.2fs %5d %7d %5d %6d %6.1f%%\n",
				t.Tenant, t.Weight, t.Records,
				statusz.HumanBytes(t.GraphBytes), statusz.HumanBytes(t.DiskBytes),
				t.IngestSeconds, t.AnalysisSeconds,
				t.QueueDepth, t.SealedEpoch, t.LagWindows, t.BurnedWindows, t.BudgetRemaining*100)
		}
		fmt.Fprintln(w)
	}

	for _, t := range st.Tenants {
		renderTenant(w, t)
	}
	if f := st.Flight; f != nil {
		fmt.Fprintf(w, "flight: %d trips", f.Trips)
		if len(f.RecentTrips) > 0 {
			last := f.RecentTrips[0]
			fmt.Fprintf(w, " (last: %s %s: %s)", last.Time.UTC().Format("15:04:05"), last.Component, last.Msg)
		}
		fmt.Fprintln(w)
	}
	if d := st.Diag; d != nil {
		fmt.Fprintf(w, "diag: %d bundles written, %d suppressed", d.Written, d.Dropped)
		if len(d.Bundles) > 0 {
			fmt.Fprintf(w, " (newest: %s)", d.Bundles[0].Name)
		}
		fmt.Fprintln(w)
	}
	if strings.TrimSpace(uptime) == "" && len(st.Tenants) == 0 {
		fmt.Fprintln(w, "(empty status — is this a cloudgraphd ops endpoint?)")
	}
}

// renderTenant draws one tenant's stage and bus tables and history line.
func renderTenant(w io.Writer, t statusz.TenantStatus) {
	if wm := t.Watermarks; wm != nil {
		target := ""
		if wm.Target > 0 {
			target = fmt.Sprintf(" · freshness target %s", wm.Target)
		}
		fmt.Fprintf(w, "%s: ingesting epoch %d, sealed %d (%d windows)%s · SLO budget %.1f%%\n",
			t.Tenant, wm.Ingested, wm.Sealed, wm.Windows, target, wm.BudgetRemaining*100)
		fmt.Fprintf(w, "%-26s %10s %6s %12s %8s %12s %6s\n",
			"stage", "epoch", "lag", "staleness", "burned", "consecutive", "trips")
		for _, s := range wm.Stages {
			slo := " "
			if s.SLO {
				slo = "*"
			}
			lagMark := ""
			if s.Lag > 1 {
				lagMark = " !"
			}
			fmt.Fprintf(w, "%s%-25s %10d %4d%-2s %12s %8d %12d %6d\n",
				slo, s.Name, s.Epoch, s.Lag, lagMark,
				(time.Duration(s.StalenessSeconds * float64(time.Second))).Round(time.Millisecond),
				s.Burned, s.Consecutive, s.Trips)
		}
		fmt.Fprintln(w)
	}

	if len(t.Bus) > 0 {
		fmt.Fprintf(w, "%-26s %8s %8s %12s %10s\n", "bus consumer", "depth", "cap", "delivered", "dropped")
		for _, c := range t.Bus {
			mark := ""
			if c.Dropped > 0 {
				mark = " !"
			}
			fmt.Fprintf(w, " %-25s %8d %8d %12d %8d%s\n", c.Name, c.Depth, c.Capacity, c.Delivered, c.Dropped, mark)
		}
		fmt.Fprintln(w)
	}

	if h := t.Hist; h != nil {
		fmt.Fprintf(w, "histstore: epochs %d–%d · %d segments · %d bytes · %d window + %d rollup records\n\n",
			h.OldestEpoch, h.NewestEpoch, h.Segments, h.Bytes, h.WindowRecords, h.RollupRecords)
	}
}
