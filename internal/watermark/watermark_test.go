package watermark

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudgraph/internal/telemetry"
)

// TestWatermarkMonotonic is the property test behind the tracker's core
// invariant: no matter what order Advance/Sealed/Ingested calls arrive in
// — including concurrent, duplicated and out-of-order epochs — every
// watermark observed by a reader is non-decreasing within a run.
func TestWatermarkMonotonic(t *testing.T) {
	tr := New(Config{})
	stages := []*Stage{tr.Stage("published", false), tr.Stage("analyzed.x", true), tr.Stage("durable", true)}

	rng := rand.New(rand.NewSource(1))
	epochs := make([]uint64, 4096)
	for i := range epochs {
		epochs[i] = uint64(rng.Intn(2000)) + 1
	}

	stop := make(chan struct{})
	var fail sync.Once
	var failMsg string
	go func() {
		// Reader: every consecutive pair of snapshots must be ordered.
		var prev Snapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := tr.Snapshot()
			if cur.Ingested < prev.Ingested || cur.Sealed < prev.Sealed {
				fail.Do(func() { failMsg = "ingested/sealed watermark moved backwards" })
				return
			}
			for i := range cur.Stages {
				if i < len(prev.Stages) && cur.Stages[i].Epoch < prev.Stages[i].Epoch {
					fail.Do(func() { failMsg = "stage " + cur.Stages[i].Name + " moved backwards" })
					return
				}
			}
			prev = cur
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ep := range epochs {
				switch (i + w) % 3 {
				case 0:
					tr.Sealed(ep, time.Now())
					tr.Ingested(ep + 1)
				default:
					stages[(i+w)%len(stages)].Advance(ep)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if failMsg != "" {
		t.Fatal(failMsg)
	}

	snap := tr.Snapshot()
	if snap.Sealed == 0 || snap.Ingested <= snap.Sealed-1 && snap.Ingested != snap.Sealed+1 {
		t.Fatalf("implausible final snapshot: ingested=%d sealed=%d", snap.Ingested, snap.Sealed)
	}
	for _, s := range snap.Stages {
		if s.Epoch > snap.Sealed+2000 {
			t.Fatalf("stage %s ran past any published epoch: %d", s.Name, s.Epoch)
		}
	}
}

// TestAdvanceOldEpochIsNoOp pins the monotonic contract directly.
func TestAdvanceOldEpochIsNoOp(t *testing.T) {
	tr := New(Config{})
	s := tr.Stage("durable", true)
	s.Advance(10)
	s.Advance(7)
	if got := s.Epoch(); got != 10 {
		t.Fatalf("Advance(7) after Advance(10): epoch %d, want 10", got)
	}
	tr.Sealed(5, time.Now())
	tr.Sealed(3, time.Now())
	if got := tr.SealedEpoch(); got != 5 {
		t.Fatalf("Sealed(3) after Sealed(5): %d, want 5", got)
	}
}

// TestFreshnessBurnAndTrip drives the SLO accounting: windows processed
// within the target leave the budget alone, slow or skipped windows burn,
// and Trip consecutive burns fire OnBurn.
func TestFreshnessBurnAndTrip(t *testing.T) {
	var burns []string
	tr := New(Config{
		FreshnessTarget: 10 * time.Millisecond,
		Trip:            2,
		OnBurn: func(stage string, epoch uint64, consecutive uint64) {
			burns = append(burns, stage)
		},
	})
	s := tr.Stage("analyzed.seg", true)

	// Fresh window: sealed just now, advanced immediately.
	tr.Sealed(1, time.Now())
	s.Advance(1)
	if got := s.burned.Load(); got != 0 {
		t.Fatalf("fresh window burned %d", got)
	}

	// Stale windows: sealed long ago.
	tr.Sealed(2, time.Now().Add(-time.Second))
	s.Advance(2)
	if got := s.burned.Load(); got != 1 {
		t.Fatalf("stale window: burned %d, want 1", got)
	}
	if len(burns) != 0 {
		t.Fatalf("tripped after one burn: %v", burns)
	}
	tr.Sealed(3, time.Now().Add(-time.Second))
	s.Advance(3)
	if got := s.burned.Load(); got != 2 {
		t.Fatalf("second stale window: burned %d, want 2", got)
	}
	if len(burns) != 1 || burns[0] != "analyzed.seg" {
		t.Fatalf("want one trip after 2 consecutive burns, got %v", burns)
	}

	// A skipped epoch (drop-oldest) burns even though never advanced to.
	tr.Sealed(4, time.Now())
	tr.Sealed(5, time.Now())
	s.Advance(5) // skips epoch 4
	if got := s.burned.Load(); got < 3 {
		t.Fatalf("skipped epoch did not burn: burned %d", got)
	}

	// Non-SLO stages never burn.
	p := tr.Stage("published", false)
	tr.Sealed(6, time.Now().Add(-time.Minute))
	p.Advance(6)
	if got := p.burned.Load(); got != 0 {
		t.Fatalf("non-SLO stage burned %d", got)
	}
}

// TestResume pins the restart contract: all watermarks jump to the
// recovered epoch with no SLO accounting, and later progress is measured
// from there.
func TestResume(t *testing.T) {
	tr := New(Config{FreshnessTarget: time.Millisecond, Trip: 1,
		OnBurn: func(string, uint64, uint64) { t.Error("resume must not burn") }})
	s := tr.Stage("durable", true)
	tr.Resume(500)
	if tr.SealedEpoch() != 500 {
		t.Fatalf("sealed after resume: %d", tr.SealedEpoch())
	}
	snap := tr.Snapshot()
	if snap.Ingested != 501 {
		t.Fatalf("ingested after resume: %d", snap.Ingested)
	}
	if s.Epoch() != 500 {
		t.Fatalf("stage after resume: %d", s.Epoch())
	}
	// Resume never regresses.
	tr.Resume(100)
	if s.Epoch() != 500 || tr.SealedEpoch() != 500 {
		t.Fatalf("resume regressed: stage=%d sealed=%d", s.Epoch(), tr.SealedEpoch())
	}
}

// TestSnapshotLagAndStaleness checks the derived progress views.
func TestSnapshotLagAndStaleness(t *testing.T) {
	tr := New(Config{FreshnessTarget: time.Second})
	s := tr.Stage("analyzed.seg", true)
	sealBase := time.Now().Add(-3 * time.Second)
	for ep := uint64(1); ep <= 5; ep++ {
		tr.Sealed(ep, sealBase.Add(time.Duration(ep)*100*time.Millisecond))
	}
	s.Advance(2)
	snap := tr.Snapshot()
	if snap.Sealed != 5 || snap.Ingested != 0 {
		t.Fatalf("sealed=%d ingested=%d", snap.Sealed, snap.Ingested)
	}
	var row StageStatus
	for _, st := range snap.Stages {
		if st.Name == "analyzed.seg" {
			row = st
		}
	}
	if row.Lag != 3 {
		t.Fatalf("lag %d, want 3 (sealed 5, stage 2)", row.Lag)
	}
	// Oldest unprocessed is epoch 3, sealed ~2.7s ago.
	if row.StalenessSeconds < 2 || row.StalenessSeconds > 10 {
		t.Fatalf("staleness %.2fs, want ~2.7s", row.StalenessSeconds)
	}
	// Caught-up stage has zero lag and staleness.
	s.Advance(5)
	snap = tr.Snapshot()
	for _, st := range snap.Stages {
		if st.Name == "analyzed.seg" && (st.Lag != 0 || st.StalenessSeconds != 0) {
			t.Fatalf("caught up but lag=%d staleness=%f", st.Lag, st.StalenessSeconds)
		}
	}
}

// TestInstrumentExposesFamilies spot-checks the Prometheus exposition.
func TestInstrumentExposesFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{FreshnessTarget: time.Second})
	s := tr.Stage("durable", true)
	tr.Instrument(reg)
	tr.Sealed(1, time.Now().Add(-10*time.Millisecond))
	s.Advance(1)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cloudgraph_watermark_epoch{stage="sealed"} 1`,
		`cloudgraph_watermark_epoch{stage="durable"} 1`,
		`cloudgraph_watermark_lag_windows{stage="durable"} 0`,
		`cloudgraph_watermark_latency_seconds_count{stage="durable"} 1`,
		`cloudgraph_watermark_slo_burned_windows{stage="durable"} 0`,
		`cloudgraph_watermark_freshness_target_seconds 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestNilTrackerIsNoOp pins the nil-receiver contract shared with
// telemetry and trace.
func TestNilTrackerIsNoOp(t *testing.T) {
	var tr *Tracker
	tr.Ingested(1)
	tr.Sealed(1, time.Now())
	tr.Resume(5)
	s := tr.Stage("x", true)
	s.Advance(3)
	if s.Epoch() != 0 || tr.SealedEpoch() != 0 {
		t.Fatal("nil tracker advanced")
	}
	if snap := tr.Snapshot(); snap.Sealed != 0 || snap.BudgetRemaining != 1 {
		t.Fatalf("nil snapshot: %+v", snap)
	}
	tr.Instrument(telemetry.NewRegistry())
}

// SealedEpoch returns the newest sealed epoch.
func (t *Tracker) SealedEpoch() uint64 {
	if t == nil {
		return 0
	}
	return t.sealed.Load()
}

// Epoch returns the stage's current watermark.
func (s *Stage) Epoch() uint64 {
	if s == nil {
		return 0
	}
	return s.epoch.Load()
}
