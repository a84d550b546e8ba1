package cloudgraph

import (
	"testing"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/runner"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
	"cloudgraph/internal/watermark"
)

// ingestOnce streams the fixture through a fresh engine in fixed batches
// and returns the wall time of the ingest calls alone.
func ingestOnce(tb testing.TB, reg *telemetry.Registry, tr *trace.Tracer, cons []core.ConsumerSpec, wm *watermark.Tracker) time.Duration {
	tb.Helper()
	const batch = 4096
	e := core.NewEngine(core.Config{Window: time.Hour, Shards: 4, Telemetry: reg, Trace: tr, Consumers: cons, Watermarks: wm})
	defer e.Close()
	recs := fixK8s.records
	start := time.Now()
	for off := 0; off < len(recs); off += batch {
		end := off + batch
		if end > len(recs) {
			end = len(recs)
		}
		e.Ingest(recs[off:end])
	}
	elapsed := time.Since(start)
	if e.Flush(); e.Epoch() == 0 {
		tb.Fatal("no windows completed")
	}
	return elapsed
}

// tenantOnce streams the fixture through a one-tenant realm manager —
// the multi-tenant daemon's resting shape, with tenancy as the only
// extra layer over a bare engine: the DRR scheduler admits every batch
// (uncontended fast path) and the COGS meter accounts it.
func tenantOnce(tb testing.TB) time.Duration {
	tb.Helper()
	const batch = 4096
	m, err := realm.NewManager(realm.Config{Engine: core.Config{Window: time.Hour, Shards: 4}})
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Close()
	r := m.Default()
	recs := fixK8s.records
	start := time.Now()
	for off := 0; off < len(recs); off += batch {
		end := off + batch
		if end > len(recs) {
			end = len(recs)
		}
		r.IngestTraced(recs[off:end], nil)
	}
	elapsed := time.Since(start)
	if r.Engine().Flush(); r.Engine().Epoch() == 0 {
		tb.Fatal("no windows completed")
	}
	return elapsed
}

// TestTelemetryOverheadWithinBudget is the benchmark acceptance gate in
// test form: the instrumented ingest hot path must stay within a few
// percent of the uninstrumented one, for every attachable layer —
// telemetry (registry attached), tracing (tracer attached, sampling off,
// the production default), the analysis plane (timeline plus all four
// runners riding the consumer bus) and tenancy (a one-tenant realm
// manager in front of the engine). Telemetry handles are preallocated
// and the per-batch cost is a handful of atomic adds; the disabled
// tracing path is a nil/len check per batch; bus consumers run on their
// own goroutines behind drop-oldest buffers, so publish never blocks the
// merge path; an uncontended scheduler admits in one mutex round trip
// per batch. The true overhead of each is well under the ISSUE's
// budgets; the gate allows 10% so scheduler noise on loaded CI machines
// doesn't flake, with best-of-5 trials per configuration and up to 3
// attempts.
func TestTelemetryOverheadWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate; race instrumentation skews ratios")
	}
	loadFixtures(t)
	ingestOnce(t, nil, nil, nil, nil) // warm caches before timing

	best := func(reg *telemetry.Registry, tr *trace.Tracer, cons []core.ConsumerSpec, wm *watermark.Tracker) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			if d := ingestOnce(t, reg, tr, cons, wm); d < min {
				min = d
			}
		}
		return min
	}
	// watermarkedEngine is the cloudgraphd shape: tracker with an SLO
	// target plus one SLO-tracked stage advancing on the consumer bus.
	watermarkedEngine := func() (*watermark.Tracker, []core.ConsumerSpec) {
		wm := watermark.New(watermark.Config{FreshnessTarget: 5 * time.Second})
		st := wm.Stage("analyzed.gate", true)
		return wm, []core.ConsumerSpec{{
			Name: "gate",
			Fn:   func(epoch uint64, _ *graph.Graph) { st.Advance(epoch) },
		}}
	}
	bestTenant := func() time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			if d := tenantOnce(t); d < min {
				min = d
			}
		}
		return min
	}
	const budget = 1.10
	gates := []struct {
		name string
		on   func() time.Duration
	}{
		{"telemetry", func() time.Duration { return best(telemetry.NewRegistry(), nil, nil, nil) }},
		{"tracing-disabled", func() time.Duration { return best(nil, trace.New(trace.Options{}), nil, nil) }},
		{"analysis-plane", func() time.Duration {
			return best(nil, nil, runner.New(runner.Config{}).Consumers(), nil)
		}},
		{"watermarks", func() time.Duration {
			wm, cons := watermarkedEngine()
			return best(nil, nil, cons, wm)
		}},
		{"tenancy", bestTenant},
	}
	for _, gate := range gates {
		var ratio float64
		ok := false
		for attempt := 1; attempt <= 3 && !ok; attempt++ {
			off := best(nil, nil, nil, nil)
			on := gate.on()
			ratio = float64(on) / float64(off)
			t.Logf("%s attempt %d: off %v, on %v, ratio %.3f", gate.name, attempt, off, on, ratio)
			ok = ratio <= budget
		}
		if !ok {
			t.Errorf("%s: instrumented ingest is %.1f%% slower than baseline, budget %.0f%%",
				gate.name, 100*(ratio-1), 100*(budget-1))
		}
	}
}
