// Package watermark tracks per-stage epoch progress through the analysis
// pipeline: how far the window stream has advanced (ingested), how many
// windows have sealed (merged + published), and how far each downstream
// consumer — the timeline, every analysis runner, the durable history
// store — has caught up. The paper's value is *timely* detection over the
// dynamic communication graph; the watermark tracker is how timeliness is
// measured while the system runs instead of offline in experiments.
//
// A Tracker is lock-free on every pipeline path: stage watermarks are
// CAS-max atomics, seal times live in a fixed ring of atomic pointers, and
// all accounting (seal→stage latency, freshness-SLO burn) happens on the
// consumer goroutine already handling the window. Stage watermarks are
// monotonic by construction — Advance with an older epoch is a no-op —
// which is the invariant the property test pins and the primitive a future
// multi-node cluster fans in (cross-node window sealing is "min of the
// members' sealed watermarks").
//
// Freshness SLO: when Config.FreshnessTarget is set, every sealed window
// must be processed by each SLO-tracked stage within the target, measured
// seal→advance. A window missing the target — or skipped outright under
// the bus's drop-oldest policy — burns that stage's error budget; Trip
// consecutive burned windows fire Config.OnBurn, the diagnostic-bundle
// trigger.
package watermark

import (
	"sync"
	"sync/atomic"
	"time"

	"cloudgraph/internal/telemetry"
)

// StageIngested and StageSealed are the two stages the Tracker maintains
// itself; downstream stages register with Stage by name.
const (
	StageIngested = "ingested"
	StageSealed   = "sealed"
)

// sealRingSize bounds how many recent seal times are retained for latency
// and staleness accounting. Windows older than the ring simply produce no
// latency sample — accounting degrades, watermarks never do.
const sealRingSize = 512

// Config parameterizes a Tracker.
type Config struct {
	// FreshnessTarget is the per-window freshness SLO: a sealed window must
	// clear every SLO-tracked stage within this duration of its seal or it
	// burns that stage's budget. Zero disables SLO accounting.
	FreshnessTarget time.Duration
	// Trip is how many consecutive burned windows fire OnBurn (default 3).
	Trip int
	// OnBurn, when set, is called (on the advancing consumer's goroutine)
	// each time a stage reaches Trip consecutive burned windows. Handlers
	// that do real work — writing a diagnostic bundle — must hand off to
	// their own goroutine.
	OnBurn func(stage string, epoch uint64, consecutive uint64)
}

// budgetRatio is the fraction of windows allowed to miss the freshness
// target before a stage's budget reports exhausted.
const budgetRatio = 0.01

func (c *Config) defaults() {
	if c.Trip <= 0 {
		c.Trip = 3
	}
}

// sealEntry records when one epoch's window sealed.
type sealEntry struct {
	epoch uint64
	at    time.Time
}

// Tracker is the pipeline-wide watermark state. Construct with New, wire
// the sealed side into the engine (Ingested, Sealed) and register one
// Stage per downstream consumer. All methods are safe on a nil *Tracker
// and cost one branch, matching the telemetry and trace contracts.
type Tracker struct {
	cfg Config

	ingested   atomic.Uint64
	ingestedNS atomic.Int64
	sealed     atomic.Uint64
	sealedNS   atomic.Int64
	seals      [sealRingSize]atomic.Pointer[sealEntry]

	// windows counts seals since construction/resume — the SLO
	// denominator.
	windows atomic.Uint64

	mu     sync.Mutex // guards stage registration only
	stages []*Stage
}

// New returns a Tracker with all watermarks at zero.
func New(cfg Config) *Tracker {
	cfg.defaults()
	return &Tracker{cfg: cfg}
}

// Stage is one downstream consumer's watermark: the highest epoch the
// consumer has fully processed. Advance is lock-free and monotonic.
type Stage struct {
	t    *Tracker
	name string
	slo  bool

	epoch  atomic.Uint64
	lastNS atomic.Int64

	burned      atomic.Uint64 // windows that missed the freshness target (or were skipped)
	consecutive atomic.Uint64 // current run of burned windows
	trips       atomic.Uint64 // OnBurn firings

	latency *telemetry.Histogram // seal→advance seconds (set by Instrument)
}

// Stage registers (or returns the existing) named downstream stage.
// SLO-tracked stages participate in freshness-burn accounting; progress
// views track both kinds identically.
func (t *Tracker) Stage(name string, slo bool) *Stage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.stages {
		if s.name == name {
			return s
		}
	}
	s := &Stage{t: t, name: name, slo: slo}
	t.stages = append(t.stages, s)
	return s
}

// Ingested advances the stream-head watermark: the epoch of the window
// currently being filled (one past the newest sealed window the stream
// has moved beyond). Monotonic; lower epochs are no-ops.
func (t *Tracker) Ingested(epoch uint64) {
	if t == nil {
		return
	}
	if casMax(&t.ingested, epoch) {
		t.ingestedNS.Store(time.Now().UnixNano())
	}
}

// Sealed records that the window published under epoch sealed at the given
// time. It advances the sealed watermark and stores the seal time for the
// downstream latency and staleness accounting.
func (t *Tracker) Sealed(epoch uint64, at time.Time) {
	if t == nil {
		return
	}
	e := &sealEntry{epoch: epoch, at: at}
	t.seals[epoch%sealRingSize].Store(e)
	if casMax(&t.sealed, epoch) {
		t.sealedNS.Store(at.UnixNano())
		t.windows.Add(1)
	}
}

// Resume forces every watermark — sealed, ingested, and all registered
// stages — up to epoch without any latency or SLO accounting: the restart
// path, where a recovered history store hands back the epoch the crashed
// process had reached. Watermarks still never move backwards.
func (t *Tracker) Resume(epoch uint64) {
	if t == nil || epoch == 0 {
		return
	}
	now := time.Now().UnixNano()
	if casMax(&t.sealed, epoch) {
		t.sealedNS.Store(now)
	}
	if casMax(&t.ingested, epoch+1) {
		t.ingestedNS.Store(now)
	}
	t.mu.Lock()
	stages := append([]*Stage(nil), t.stages...)
	t.mu.Unlock()
	for _, s := range stages {
		if casMax(&s.epoch, epoch) {
			s.lastNS.Store(now)
		}
	}
}

// sealTime returns when epoch sealed, if the ring still holds it.
func (t *Tracker) sealTime(epoch uint64) (time.Time, bool) {
	e := t.seals[epoch%sealRingSize].Load()
	if e == nil || e.epoch != epoch {
		return time.Time{}, false
	}
	return e.at, true
}

// casMax advances v to epoch if it is greater; reports whether it moved.
func casMax(v *atomic.Uint64, epoch uint64) bool {
	for {
		old := v.Load()
		if epoch <= old {
			return false
		}
		if v.CompareAndSwap(old, epoch) {
			return true
		}
	}
}

// Advance moves the stage watermark to epoch (no-op when not ahead) and
// runs the freshness accounting for every epoch newly covered: the epoch
// itself is timed seal→now against the SLO target, and epochs jumped over
// — deliveries skipped under the bus's drop-oldest policy — burn outright,
// since they were never processed at all. Called from the consumer's own
// goroutine; safe (if pointless) to call concurrently.
func (s *Stage) Advance(epoch uint64) {
	if s == nil {
		return
	}
	for {
		old := s.epoch.Load()
		if epoch <= old {
			return
		}
		if !s.epoch.CompareAndSwap(old, epoch) {
			continue
		}
		now := time.Now()
		s.lastNS.Store(now.UnixNano())
		s.account(old, epoch, now)
		return
	}
}

// account applies latency and SLO accounting for epochs (old, epoch].
func (s *Stage) account(old, epoch uint64, now time.Time) {
	t := s.t
	target := t.cfg.FreshnessTarget
	// Latency sample for the epoch actually processed.
	var lat time.Duration
	sealAt, haveSeal := t.sealTime(epoch)
	if haveSeal {
		lat = now.Sub(sealAt)
		s.latency.Observe(lat.Seconds())
	}
	if target <= 0 || !s.slo {
		return
	}
	// Skipped epochs (drop-oldest casualties) burn; cap the scan at the
	// seal ring so a post-resume jump cannot loop for millions of epochs.
	lo := old + 1
	if epoch-old > sealRingSize {
		lo = epoch - sealRingSize
	}
	for ep := lo; ep <= epoch; ep++ {
		burned := false
		switch {
		case ep == epoch:
			burned = haveSeal && lat > target
		default:
			_, known := t.sealTime(ep)
			burned = known // skipped a window that really sealed
		}
		if !burned {
			s.consecutive.Store(0)
			continue
		}
		s.burned.Add(1)
		run := s.consecutive.Add(1)
		if run != 0 && run%uint64(t.cfg.Trip) == 0 {
			s.trips.Add(1)
			if t.cfg.OnBurn != nil {
				t.cfg.OnBurn(s.name, ep, run)
			}
		}
	}
}

// StageStatus is one stage's row in a Snapshot.
type StageStatus struct {
	Name  string `json:"name"`
	Epoch uint64 `json:"epoch"`
	// Lag is how many sealed windows the stage has not yet processed.
	Lag uint64 `json:"lag"`
	// StalenessSeconds is how long the oldest unprocessed sealed window
	// has been waiting (0 when the stage is caught up).
	StalenessSeconds float64 `json:"staleness_seconds"`
	// SLO reports whether the stage participates in freshness-burn
	// accounting.
	SLO         bool      `json:"slo"`
	Burned      uint64    `json:"burned"`
	Consecutive uint64    `json:"consecutive"`
	Trips       uint64    `json:"trips"`
	LastAdvance time.Time `json:"last_advance"`
}

// Snapshot is a point-in-time view of every watermark — the /statusz and
// metrics payload.
type Snapshot struct {
	Ingested uint64    `json:"ingested"`
	Sealed   uint64    `json:"sealed"`
	SealedAt time.Time `json:"sealed_at"`
	// Windows counts seals since construction/resume: the SLO denominator.
	Windows uint64        `json:"windows"`
	Target  time.Duration `json:"freshness_target_ns"`
	// BudgetRemaining is the fraction of the error budget left, min over
	// SLO stages: 1 = untouched, <= 0 = exhausted. 1 when SLO is off.
	BudgetRemaining float64       `json:"budget_remaining"`
	Stages          []StageStatus `json:"stages"`
}

// Snapshot captures every stage's progress at one instant. Stage rows are
// in registration order (pipeline order, when wired in order).
func (t *Tracker) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{BudgetRemaining: 1}
	}
	now := time.Now()
	snap := Snapshot{
		Ingested:        t.ingested.Load(),
		Sealed:          t.sealed.Load(),
		Windows:         t.windows.Load(),
		Target:          t.cfg.FreshnessTarget,
		BudgetRemaining: 1,
	}
	if ns := t.sealedNS.Load(); ns != 0 {
		snap.SealedAt = time.Unix(0, ns).UTC()
	}
	t.mu.Lock()
	stages := append([]*Stage(nil), t.stages...)
	t.mu.Unlock()
	for _, s := range stages {
		st := StageStatus{
			Name:        s.name,
			Epoch:       s.epoch.Load(),
			SLO:         s.slo,
			Burned:      s.burned.Load(),
			Consecutive: s.consecutive.Load(),
			Trips:       s.trips.Load(),
		}
		if ns := s.lastNS.Load(); ns != 0 {
			st.LastAdvance = time.Unix(0, ns).UTC()
		}
		if sealed := snap.Sealed; st.Epoch < sealed {
			st.Lag = sealed - st.Epoch
			if at, ok := t.sealTime(st.Epoch + 1); ok {
				st.StalenessSeconds = now.Sub(at).Seconds()
			} else if ns := s.lastNS.Load(); ns != 0 {
				st.StalenessSeconds = now.Sub(time.Unix(0, ns)).Seconds()
			}
		}
		if t.cfg.FreshnessTarget > 0 && s.slo && snap.Windows > 0 {
			allowed := budgetRatio * float64(snap.Windows)
			if allowed > 0 {
				if rem := 1 - float64(st.Burned)/allowed; rem < snap.BudgetRemaining {
					snap.BudgetRemaining = rem
				}
			}
		}
		snap.Stages = append(snap.Stages, st)
	}
	return snap
}

// Instrument registers the tracker's metric families in reg and attaches
// the per-stage latency histograms. Call after every Stage has registered
// (cloudgraphd wires stages at startup, then instruments). A nil registry
// or tracker is a no-op.
func (t *Tracker) Instrument(reg *telemetry.Registry) {
	if t == nil || reg == nil {
		return
	}
	gaugeStage := func(name string, fn func() float64) {
		reg.GaugeFunc("cloudgraph_watermark_epoch",
			"per-stage pipeline epoch watermark",
			fn, telemetry.Label{Key: "stage", Value: name})
	}
	gaugeStage(StageIngested, func() float64 { return float64(t.ingested.Load()) })
	gaugeStage(StageSealed, func() float64 { return float64(t.sealed.Load()) })
	t.mu.Lock()
	stages := append([]*Stage(nil), t.stages...)
	t.mu.Unlock()
	for _, s := range stages {
		s := s
		label := telemetry.Label{Key: "stage", Value: s.name}
		gaugeStage(s.name, func() float64 { return float64(s.epoch.Load()) })
		reg.GaugeFunc("cloudgraph_watermark_lag_windows",
			"sealed windows not yet processed by the stage",
			func() float64 {
				sealed, cur := t.sealed.Load(), s.epoch.Load()
				if cur >= sealed {
					return 0
				}
				return float64(sealed - cur)
			}, label)
		reg.GaugeFunc("cloudgraph_watermark_staleness_seconds",
			"age of the oldest sealed window the stage has not processed",
			func() float64 { return s.staleness(time.Now()) }, label)
		s.latency = reg.Histogram("cloudgraph_watermark_latency_seconds",
			"seal-to-stage latency per window",
			telemetry.DurBuckets, label)
		if s.slo {
			reg.GaugeFunc("cloudgraph_watermark_slo_burned_windows",
				"windows that missed the freshness target per stage",
				func() float64 { return float64(s.burned.Load()) }, label)
		}
	}
	if t.cfg.FreshnessTarget > 0 {
		reg.GaugeFunc("cloudgraph_watermark_freshness_target_seconds",
			"configured freshness SLO target",
			func() float64 { return t.cfg.FreshnessTarget.Seconds() })
		reg.GaugeFunc("cloudgraph_watermark_slo_budget_remaining",
			"freshness error budget remaining (1 = untouched, <=0 = exhausted)",
			func() float64 { return t.Snapshot().BudgetRemaining })
	}
}

// staleness is the gauge form of StageStatus.StalenessSeconds.
func (s *Stage) staleness(now time.Time) float64 {
	sealed, cur := s.t.sealed.Load(), s.epoch.Load()
	if cur >= sealed {
		return 0
	}
	if at, ok := s.t.sealTime(cur + 1); ok {
		return now.Sub(at).Seconds()
	}
	if ns := s.lastNS.Load(); ns != 0 {
		return now.Sub(time.Unix(0, ns)).Seconds()
	}
	return 0
}
