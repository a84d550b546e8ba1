package realm

import (
	"sync"
	"testing"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/watermark"
)

// TestNoisyNeighborQoS pins the scheduler's QoS promise: a tenant
// flooding the daemon at more than ten times a small tenant's volume
// must not push the small tenant's pipeline past its freshness SLO. The
// small streaming tenant seals a window at a time while the flood runs
// flat out on the shared two-slot pool; at the end the small tenant has
// burned zero SLO windows and a full error budget, even though the flood
// kept every scheduler slot contended. Run under -race in CI.
func TestNoisyNeighborQoS(t *testing.T) {
	m, err := NewManager(Config{
		Engine:    core.Config{Window: time.Minute, Shards: 2},
		Live:      true,
		Retention: 64,
		// A generous target by interactive standards, brutal while a
		// flood owns the pool: each small window must go seal-to-analyzed
		// within 5s of wall clock or the budget burns.
		Watermark: watermark.Config{FreshnessTarget: 5 * time.Second, Trip: 1},
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	flood, err := m.Realm("flood")
	if err != nil {
		t.Fatal(err)
	}
	small, err := m.Realm("stream")
	if err != nil {
		t.Fatal(err)
	}

	start := time.Unix(1700000000, 0).UTC()
	const (
		floodWindows = 10
		floodBatch   = 800
		smallWindows = 8
		smallBatch   = 60
	)

	// The flood: floodWindows minutes of floodBatch records each, pumped
	// as fast as the scheduler admits them, every window dragging four
	// analyses plus timeline work onto the two shared slots.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([]flowlog.Record, floodBatch)
		for w := range floodWindows {
			at := start.Add(time.Duration(w) * time.Minute)
			for i := range batch {
				batch[i] = testRecord(i, at)
			}
			flood.IngestTraced(batch, nil)
		}
		flood.Engine().Flush()
	}()

	// The small streaming tenant: one window at a time, sealed as it
	// goes — the interactive workload whose freshness the flood must not
	// be able to buy.
	batch := make([]flowlog.Record, smallBatch)
	for w := range smallWindows {
		at := start.Add(time.Duration(w) * time.Minute)
		for i := range batch {
			batch[i] = testRecord(i, at)
		}
		small.IngestTraced(batch, nil)
		if w > 0 {
			small.Engine().Flush()
		}
	}
	small.Engine().Flush()
	wg.Wait()

	// Everything the small tenant sealed must be analyzed within the
	// freshness target; poll up to the target itself for the last
	// consumers to drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := small.Watermarks().Snapshot()
		lag := uint64(0)
		for _, st := range snap.Stages {
			if st.Lag > lag {
				lag = st.Lag
			}
		}
		if lag == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	snap := small.Watermarks().Snapshot()
	if snap.Sealed != uint64(smallWindows) {
		t.Fatalf("small tenant sealed %d windows, want %d", snap.Sealed, smallWindows)
	}
	for _, st := range snap.Stages {
		if st.Lag > 0 {
			t.Errorf("small tenant stage %s still %d windows behind", st.Name, st.Lag)
		}
		if st.Burned != 0 {
			t.Errorf("small tenant stage %s burned %d SLO windows under flood, want 0", st.Name, st.Burned)
		}
	}
	if snap.BudgetRemaining != 1 {
		t.Errorf("small tenant budget = %v, want untouched (1)", snap.BudgetRemaining)
	}

	// The flood really was a flood: at least 10x the small tenant's
	// volume through the same two slots.
	fc, sc := flood.Cost(), small.Cost()
	if fc.Records < 10*sc.Records {
		t.Fatalf("flood %d records vs small %d: not a >=10x flood", fc.Records, sc.Records)
	}
	if sc.Records != smallWindows*smallBatch {
		t.Errorf("small tenant metered %d records, want %d", sc.Records, smallWindows*smallBatch)
	}
}
