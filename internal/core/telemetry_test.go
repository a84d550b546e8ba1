package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/telemetry"
)

func TestEngineTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewEngine(Config{Window: time.Hour, Shards: 4, Telemetry: reg})
	defer e.Close()
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

	var perShard int64
	for i := 0; i < 4; i++ {
		perShard += reg.Counter("cloudgraph_core_shard_records_total",
			"records folded per ingest shard",
			telemetry.Label{Key: "shard", Value: strconv.Itoa(i)}).Value()
	}
	if perShard != int64(len(recs)) {
		t.Errorf("shard counters sum to %d, want %d", perShard, len(recs))
	}
	if got := e.tel.windows.Value(); got != 3 {
		t.Errorf("windows counter = %d, want 3", got)
	}
	if e.tel.merge.Count() == 0 {
		t.Error("merge histogram recorded nothing")
	}
	if e.tel.flushLag.Count() == 0 {
		t.Error("flush-lag histogram recorded nothing")
	}
	// The engine's meter mirrors into the shared ingest families.
	if got := reg.Counter("cloudgraph_ingest_records_total",
		"connection summaries accepted by an ingest path").Value(); got != int64(len(recs)) {
		t.Errorf("ingest records counter = %d, want %d", got, len(recs))
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{
		"cloudgraph_core_shard_records_total",
		"cloudgraph_core_window_merge_seconds_bucket",
		"cloudgraph_core_windows_completed_total 3",
		"cloudgraph_core_open_windows 0",
		"cloudgraph_core_pending_merge_windows 0",
		"cloudgraph_ingest_bytes_total",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing %q", fam)
		}
	}
}

func TestEngineTelemetryDisabled(t *testing.T) {
	// With no registry every handle is nil and ingest must still work —
	// the nil-receiver no-op path the overhead budget depends on.
	e := NewEngine(Config{Window: time.Hour, Shards: 2})
	defer e.Close()
	e.Ingest(engineRecords(t, 1))
	if e.Flush(); e.Epoch() != 1 {
		t.Fatalf("windows = %d, want 1", e.Epoch())
	}
	if len(e.tel.shardRecords) != 2 {
		t.Fatalf("shardRecords len = %d, want 2 (sized even when off)", len(e.tel.shardRecords))
	}
	for i, c := range e.tel.shardRecords {
		if c != nil {
			t.Errorf("shard %d counter non-nil with telemetry off", i)
		}
	}
}
