package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/telemetry"
)

// exposition renders reg and returns each sample line's value by series.
func exposition(t *testing.T, reg *telemetry.Registry) (map[string]float64, string) {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	return series, b.String()
}

func TestEngineTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewEngine(Config{Window: time.Hour, Shards: 4})
	defer e.Close()
	e.Instrument(reg, telemetry.Label{Key: "tenant", Value: "t"})
	recs := engineRecords(t, 3)
	for i := 0; i < len(recs); i += 97 {
		end := i + 97
		if end > len(recs) {
			end = len(recs)
		}
		e.Ingest(recs[i:end])
	}
	if e.Flush(); e.Epoch() != 3 {
		t.Fatalf("windows = %d, want 3", e.Epoch())
	}

	series, out := exposition(t, reg)
	var perShard float64
	for i := 0; i < 4; i++ {
		perShard += series[`cloudgraph_core_shard_records_total{shard="`+strconv.Itoa(i)+`",tenant="t"}`]
	}
	if perShard != float64(len(recs)) {
		t.Errorf("shard series sum to %v, want %d", perShard, len(recs))
	}
	for name, want := range map[string]float64{
		`cloudgraph_core_windows_completed_total{tenant="t"}`: 3,
		`cloudgraph_core_open_windows{tenant="t"}`:            0,
		`cloudgraph_core_pending_merge_windows{tenant="t"}`:   0,
	} {
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	for _, hist := range []string{
		`cloudgraph_core_window_merge_seconds_count{tenant="t"}`,
		`cloudgraph_core_window_flush_lag_windows_count{tenant="t"}`,
	} {
		if series[hist] == 0 {
			t.Errorf("%s recorded nothing", hist)
		}
	}
	if strings.Contains(out, "cloudgraph_ingest_") {
		t.Errorf("exposition still carries a cloudgraph_ingest_ family:\n%s", out)
	}
}

func TestEngineTelemetryDisabled(t *testing.T) {
	// Without Instrument both histograms are nil and ingest must still
	// work — the nil-receiver no-op path the overhead budget depends on.
	e := NewEngine(Config{Window: time.Hour, Shards: 2})
	defer e.Close()
	e.Instrument(nil)
	e.Ingest(engineRecords(t, 1))
	if e.Flush(); e.Epoch() != 1 {
		t.Fatalf("windows = %d, want 1", e.Epoch())
	}
	if e.merge != nil || e.flushLag != nil {
		t.Error("histograms attached by a nil registry")
	}
}
