// Package realm multiplexes the whole analysis pipeline per tenant. The
// paper's unit of analysis is a cloud *subscription*; a Realm is one
// subscription's private pipeline plane — its own engine and consumer
// bus, its own timeline/runner plane (whose policy runner keeps the
// tenant's baseline), its own durable history partition and watermark
// tracker — while the Manager shares the machine between realms: a
// deficit-round-robin scheduler (sched.go) meters every unit of
// per-tenant work through one worker pool, and a COGS meter (cogs.go)
// accounts what each subscription costs to serve.
//
// Isolation contract, pinned by the tenant-equivalence tests: because a
// realm owns every piece of per-tenant state and the scheduler only
// delays work (never reorders one tenant's own tasks — each engine and
// bus consumer keeps its single-goroutine epoch order), N tenants
// interleaved through one daemon produce per-tenant results byte-equal
// to each tenant running alone, including across kill -9 recovery from
// the per-tenant history partitions.
package realm

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/histstore"
	"cloudgraph/internal/runner"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
	"cloudgraph/internal/watermark"
)

// Config parameterizes a Manager.
type Config struct {
	// Engine is the per-tenant engine template. Consumers, Trace,
	// Watermarks and StartEpoch are owned by the manager and
	// overwritten per realm; every other field applies to each tenant
	// identically (identical configs are what make the isolation
	// equivalence well-defined).
	Engine core.Config
	// Retention bounds the windows each tenant plane retains in memory:
	// its timeline and per-runner results (runner.Config.History).
	Retention int
	// Watermark parameterizes each tenant's tracker. Its OnBurn is
	// ignored; set Config.OnBurn to observe burns with the tenant name.
	Watermark watermark.Config
	// OnBurn, when set, fires on any tenant's freshness-SLO burn trip.
	OnBurn func(tenant, stage string, epoch, consecutive uint64)
	// DataDir, when set, partitions durable history per tenant under
	// DataDir/<tenant>/ with per-tenant recovery and compaction.
	DataDir string
	// Hist configures each tenant's history store.
	Hist histstore.Options
	// CompactEvery starts a per-tenant compactor loop (0 disables).
	CompactEvery time.Duration
	// Workers is the shared pool width the scheduler grants (default 4).
	Workers int
	// MaxTenants caps admitted tenants (default 64).
	MaxTenants int
	// Weights seeds per-tenant scheduler weights (default 1 each).
	Weights map[string]int64
	// Telemetry and Trace are shared across realms. Every series a realm
	// registers carries its tenant label: the engine's and bus's
	// cloudgraph_core_*, the COGS cloudgraph_tenant_* (cogs.go) and the
	// history store's. Only the default tenant's watermark series are
	// unlabeled; their owner instruments them (a named tenant's carry its
	// name). A realm's GaugeFuncs keep its engine, plane and store
	// reachable from the registry for the registry's life.
	Telemetry *telemetry.Registry
	Trace     *trace.Tracer
}

// Manager owns the realms and the scheduler shared between them.
type Manager struct {
	cfg   Config
	sched *Scheduler

	mu     sync.RWMutex
	realms map[string]*Realm
	order  []string
	closed bool
}

// Realm is one tenant's pipeline plane.
type Realm struct {
	name   string
	m      *Manager
	engine *core.Engine
	plane  *runner.Plane
	hist   *histstore.Store
	wm     *watermark.Tracker
	cogs   cogsMeter

	recovered   int // windows replayed at startup
	stopCompact func()
}

// NewManager builds a manager, recovers every tenant found under
// cfg.DataDir, and admits the default tenant. The default realm always
// exists so untagged traffic never races admission.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 64
	}
	m := &Manager{
		cfg:    cfg,
		sched:  NewScheduler(cfg.Workers, defaultQuantum),
		realms: make(map[string]*Realm),
	}
	for tenant, w := range cfg.Weights {
		m.sched.SetWeight(tenant, w)
	}
	// Recover previously-admitted tenants: every valid tenant directory
	// under DataDir is a realm that was durably serving before the crash
	// or restart. Sorted for a deterministic admission order.
	if cfg.DataDir != "" {
		ents, err := os.ReadDir(cfg.DataDir)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("realm recovery scan: %w", err)
		}
		names := make([]string, 0, len(ents))
		for _, ent := range ents {
			if ent.IsDir() && ValidName(ent.Name()) {
				names = append(names, ent.Name())
			}
		}
		sort.Strings(names)
		for _, name := range names {
			if _, err := m.Realm(name); err != nil {
				//lint:allow errdrop best-effort teardown; the recovery error is the one the caller needs
				m.Close()
				return nil, fmt.Errorf("recovering tenant %s: %w", name, err)
			}
		}
	}
	if _, err := m.Realm(DefaultTenant); err != nil {
		//lint:allow errdrop best-effort teardown; the admission error is the one the caller needs
		m.Close()
		return nil, err
	}
	return m, nil
}

// Scheduler exposes the shared admission gate (for /statusz's scheduler
// section and tests).
func (m *Manager) Scheduler() *Scheduler { return m.sched }

// Telemetry returns the registry shared by every realm (nil when off).
func (m *Manager) Telemetry() *telemetry.Registry { return m.cfg.Telemetry }

// Default returns the default tenant's realm.
func (m *Manager) Default() *Realm {
	//lint:allow errdrop the default tenant is admitted in NewManager; re-admission cannot fail
	r, _ := m.Realm(DefaultTenant)
	return r
}

// Get returns an admitted realm or nil, never creating one.
func (m *Manager) Get(name string) *Realm {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.realms[name]
}

// Realms snapshots every admitted realm in admission order.
func (m *Manager) Realms() []*Realm {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Realm, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, m.realms[name])
	}
	return out
}

// Realm returns the named tenant's realm, admitting it if the name is
// valid and the tenant cap has room.
func (m *Manager) Realm(name string) (*Realm, error) {
	m.mu.RLock()
	r := m.realms[name]
	m.mu.RUnlock()
	if r != nil {
		return r, nil
	}
	if !ValidName(name) {
		return nil, fmt.Errorf("invalid tenant name %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("realm manager closed")
	}
	if r := m.realms[name]; r != nil {
		return r, nil
	}
	if len(m.realms) >= m.cfg.MaxTenants {
		return nil, fmt.Errorf("tenant %q rejected: %d tenants admitted (max %d)", name, len(m.realms), m.cfg.MaxTenants)
	}
	r, err := m.create(name)
	if err != nil {
		return nil, err
	}
	m.realms[name] = r
	m.order = append(m.order, name)
	return r, nil
}

// create assembles one tenant's plane. Called with mu held; the realm is
// fully wired — recovery replayed, consumers scheduled, compactor
// running — before any ingest can reach it.
func (m *Manager) create(name string) (*Realm, error) {
	wmCfg := m.cfg.Watermark
	if m.cfg.OnBurn != nil {
		onBurn := m.cfg.OnBurn
		wmCfg.OnBurn = func(stage string, epoch, consecutive uint64) {
			onBurn(name, stage, epoch, consecutive)
		}
	} else {
		wmCfg.OnBurn = nil
	}
	r := &Realm{name: name, m: m, wm: watermark.New(wmCfg)}
	tenant := telemetry.Label{Key: "tenant", Value: name}

	ecfg := m.cfg.Engine
	ecfg.Trace = m.cfg.Trace
	ecfg.Watermarks = r.wm
	ecfg.Consumers = nil
	ecfg.StartEpoch = 0

	r.plane = runner.New(runner.Config{
		History:    m.cfg.Retention,
		Telemetry:  m.cfg.Telemetry,
		Trace:      m.cfg.Trace,
		Watermarks: r.wm,
	})
	consumers := r.plane.Consumers()

	if m.cfg.DataDir != "" {
		hs, err := histstore.Open(filepath.Join(m.cfg.DataDir, name), m.cfg.Hist)
		if err != nil {
			return nil, fmt.Errorf("tenant history: %w", err)
		}
		r.hist = hs
		hs.Trace(m.cfg.Trace)
		hs.Instrument(m.cfg.Telemetry, tenant)
		if err := hs.Replay(func(ep uint64, g *graph.Graph) error {
			r.plane.Restore(ep, g)
			r.recovered++
			return nil
		}); err != nil {
			//lint:allow errdrop best-effort teardown; the replay error is the one the caller needs
			hs.Close()
			return nil, fmt.Errorf("tenant history replay: %w", err)
		}
		r.plane.SetHistory(hs, nil)
		ecfg.StartEpoch = hs.LastEpoch()
		wmDurable := r.wm.Stage("durable", true)
		r.wm.Resume(ecfg.StartEpoch)
		consumers = append(consumers, core.ConsumerSpec{
			Name:   "history",
			Buffer: 256,
			Fn: func(epoch uint64, g *graph.Graph) {
				if err := hs.Append(epoch, g); err != nil {
					if tr := m.cfg.Trace; tr != nil {
						tr.Trip("realm."+name, "history append: "+err.Error())
					}
					return
				}
				wmDurable.Advance(epoch)
			},
		})
		if m.cfg.CompactEvery > 0 {
			r.stopCompact = hs.StartCompactor(m.cfg.CompactEvery)
		}
	}

	// Every bus consumer — the analysis plane, the durable history append
	// — admits through the weighted-fair scheduler before touching the
	// window, costed by the graph's fold size. The consumer keeps its own
	// goroutine and epoch order; only its start time moves.
	for i := range consumers {
		inner := consumers[i].Fn
		consumers[i].Fn = func(epoch uint64, g *graph.Graph) {
			m.sched.Run(name, analysisCost(g), func() {
				start := time.Now()
				inner(epoch, g)
				r.cogs.timeAnalysis(start)
			})
		}
	}
	ecfg.Consumers = consumers
	r.engine = core.NewEngine(ecfg)
	r.engine.Instrument(m.cfg.Telemetry, tenant)
	r.instrument(m.cfg.Telemetry)
	// Every stage now exists. The default tenant's tracker keeps the
	// unlabeled cloudgraph_watermark_* series its owner instruments;
	// a named tenant's carry its name.
	if name != DefaultTenant {
		r.wm.Instrument(m.cfg.Telemetry, tenant)
	}
	return r, nil
}

// analysisCost is a window's DRR cost: its fold size in nodes+edges.
func analysisCost(g *graph.Graph) int64 {
	if g == nil {
		return 1
	}
	return 1 + int64(g.NumNodes()) + int64(g.NumDirectedEdges())
}

// weight reports a tenant's current scheduler weight.
func (m *Manager) weight(tenant string) int64 {
	m.sched.mu.Lock()
	defer m.sched.mu.Unlock()
	if q := m.sched.tenants[tenant]; q != nil {
		return q.weight
	}
	return 1
}

// Close tears every realm down: engines (and their consumer buses)
// first, then compactors and history stores.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	realms := make([]*Realm, 0, len(m.order))
	for _, name := range m.order {
		realms = append(realms, m.realms[name])
	}
	m.mu.Unlock()
	var firstErr error
	for _, r := range realms {
		r.engine.Close()
		if r.stopCompact != nil {
			r.stopCompact()
		}
		if r.hist != nil {
			if err := r.hist.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Name returns the tenant this realm serves.
func (r *Realm) Name() string { return r.name }

// Engine exposes the tenant's engine.
func (r *Realm) Engine() *core.Engine { return r.engine }

// Plane exposes the tenant's analysis plane.
func (r *Realm) Plane() *runner.Plane { return r.plane }

// Hist exposes the tenant's durable history store (nil without DataDir).
func (r *Realm) Hist() *histstore.Store { return r.hist }

// Watermarks exposes the tenant's watermark tracker.
func (r *Realm) Watermarks() *watermark.Tracker { return r.wm }

// Recovered reports how many windows startup replayed for this tenant.
func (r *Realm) Recovered() int { return r.recovered }

// IngestTraced folds a batch into the tenant's engine once the
// weighted-fair scheduler admits it. Borrow semantics pass through: recs
// and tcs are the engine's only for the duration of the call.
//
//vet:borrowed recs tcs
func (r *Realm) IngestTraced(recs []flowlog.Record, tcs []trace.Context) {
	// Acquire/release directly rather than through Scheduler.Run: the
	// batch is borrowed, and a Run closure capturing it would pin it
	// heap-reachable past the call.
	if s := r.m.sched; s != nil {
		s.acquire(r.name, int64(len(recs)))
		defer s.release()
	}
	start := time.Now()
	r.engine.IngestTraced(recs, tcs)
	r.cogs.timeIngest(start)
}

// diskBytes is the tenant's durable footprint (0 without a store).
func (r *Realm) diskBytes() int64 {
	if r.hist == nil {
		return 0
	}
	return r.hist.Stats().Bytes
}

// graphBytes is the in-memory size of the latest window graph in the
// tenant's timeline (0 before the first).
func (r *Realm) graphBytes() int64 {
	if g := r.plane.Timeline().Latest(); g != nil {
		return g.MemBytes()
	}
	return 0
}

// Cost snapshots the tenant's COGS meter.
func (r *Realm) Cost() Cost {
	c := Cost{
		Tenant:          r.name,
		Weight:          r.m.weight(r.name),
		Records:         r.engine.Records(),
		GraphBytes:      r.graphBytes(),
		IngestSeconds:   time.Duration(r.cogs.ingestNS.Load()).Seconds(),
		AnalysisSeconds: time.Duration(r.cogs.analysisNS.Load()).Seconds(),
		DiskBytes:       r.diskBytes(),
		QueueDepth:      r.m.sched.Depth(r.name),
	}
	c.WireBytes = c.Records * flowlog.WireSize
	return c
}
