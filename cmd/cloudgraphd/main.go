// Command cloudgraphd runs the analytics service of Figure 8: a TCP
// endpoint that ingests connection summaries (binary wire format via the
// INGEST command) and answers queries — window stats, segmentation,
// security monitoring — over the same line protocol.
//
// Usage:
//
//	cloudgraphd -addr 127.0.0.1:7443 -window 1h -collapse 0.001
//
// Then, e.g. from graphctl or any TCP client:
//
//	printf 'STATS\n' | nc 127.0.0.1 7443
//
// With -live (the default) the daemon also runs the online analysis
// plane: every completed window is appended to the timeline (the latest
// window, and the extents of the last -retention windows for time
// resolution) and analyzed in place by the §2 runners — segmentation,
// succinct summary with anomaly score, counterfactual capacity plan and
// policy churn. Results are served over QUERY (`graphctl query segment
// latest`) and the /analyz ops view, pinned to the epoch that produced
// them.
//
// The daemon is multi-tenant: every pipeline plane above exists once per
// tenant realm (the paper's unit of analysis is a cloud subscription).
// Untagged traffic lands on the "default" tenant, so single-tenant
// deployments never notice; a TENANT command or per-frame tenant tags
// route records to their own realm, admitted on first use up to
// -max-tenants. A deficit-round-robin scheduler shares -sched-workers
// execution slots between realms in proportion to -tenant-weight, and a
// per-tenant COGS meter (records, bytes, graph memory, analysis seconds,
// disk) heads each tenant's /statusz row and the tenant-labeled metrics.
//
// With -data-dir the daemon is crash-recoverable: every completed window
// is appended to a durable epoch-indexed segment store partitioned per
// tenant under <data-dir>/<tenant>/, replayed on restart to rebuild each
// tenant's timeline and runners (epochs keep ascending across the
// crash), compacted into hour roll-ups past -history-retention, and
// served by QUERY — by epoch or RFC3339 time — long after the in-memory
// retention has moved on.
//
// A second HTTP listener (-ops, default 127.0.0.1:9443) serves operational
// views of the running daemon: Prometheus metrics on /metrics, liveness on
// /healthz, profiling on /debug/pprof/, a tenant's latest window as an
// adjacency heatmap on /graphz (?tenant=, the default tenant otherwise),
// sampled record traces on /tracez, the flight recorder on /flightz, one
// status row per tenant plane beside the scheduler on /statusz (also
// served as /tenantz) and a tenant's analysis plane on /analyz (?tenant=
// as on /graphz). The startup log line lists every view. SIGQUIT dumps
// the flight ring to stderr without stopping the daemon.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cloudgraph/internal/analytics"
	"cloudgraph/internal/core"
	"cloudgraph/internal/diag"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/histstore"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/statusz"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
	"cloudgraph/internal/watermark"
)

// parseLogLevel maps the -log-level flag onto slog levels.
func parseLogLevel(s string) (slog.Level, bool) {
	switch s {
	case "debug":
		return slog.LevelDebug, true
	case "info":
		return slog.LevelInfo, true
	case "warn":
		return slog.LevelWarn, true
	case "error":
		return slog.LevelError, true
	}
	return 0, false
}

// weightFlag collects repeatable -tenant-weight name=w pairs.
type weightFlag map[string]int64

func (f weightFlag) String() string {
	pairs := make([]string, 0, len(f))
	for name, w := range f {
		pairs = append(pairs, fmt.Sprintf("%s=%d", name, w))
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

func (f weightFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=weight, got %q", s)
	}
	if !realm.ValidName(name) {
		return fmt.Errorf("invalid tenant name %q", name)
	}
	w, err := strconv.ParseInt(val, 10, 64)
	if err != nil || w <= 0 {
		return fmt.Errorf("weight %q must be a positive integer", val)
	}
	f[name] = w
	return nil
}

// statusSources wires /statusz to the realm manager: one row source per
// admitted tenant, in admission order, and the shared scheduler.
func statusSources(m *realm.Manager) statusz.Sources {
	return statusz.Sources{
		Scheduler: m.Scheduler(),
		Tenants: func() []statusz.TenantSources {
			realms := m.Realms()
			out := make([]statusz.TenantSources, 0, len(realms))
			for _, r := range realms {
				out = append(out, statusz.TenantSources{
					Cost:       r.Cost(),
					Recovered:  r.Recovered(),
					Watermarks: r.Watermarks(),
					Bus:        r.Engine().Bus(),
					Hist:       r.Hist(),
				})
			}
			return out
		},
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cloudgraphd: ")
	weights := weightFlag{}
	var (
		addr        = flag.String("addr", "127.0.0.1:7443", "listen address")
		window      = flag.Duration("window", time.Hour, "graph window size")
		collapse    = flag.Float64("collapse", 0, "heavy-hitter collapse threshold (0 disables; paper uses 0.001)")
		facet       = flag.String("facet", "ip", "graph facet: ip or ip-port")
		workers     = flag.Int("workers", runtime.NumCPU(), "ingest shards: concurrent connections fold records in parallel, one flow-key shard per worker")
		opsAddr     = flag.String("ops", "127.0.0.1:9443", "ops HTTP address serving the metrics, profiling and status views (empty disables)")
		traceSample = flag.Int("trace-sample", 0, "trace one in N ingested records end to end (0 disables span sampling)")
		flightN     = flag.Int("flight-events", trace.DefaultFlightEvents, "flight recorder ring capacity (events and spans retained for /flightz and crash dumps)")
		logLevel    = flag.String("log-level", "info", "structured event log level: debug, info, warn or error")
		live        = flag.Bool("live", true, "run the online analysis plane (timeline + runners) on each tenant's consumer bus")
		retention   = flag.Int("retention", 96, "windows each tenant's analysis plane retains in memory (QUERY results and RFC3339 time resolution); older epochs are served from -data-dir")
		dataDir     = flag.String("data-dir", "", "durable history directory: completed windows are appended to a per-tenant epoch-indexed segment store under <data-dir>/<tenant>/, replayed on restart, and served by QUERY past the in-memory retention (empty disables)")
		histRet     = flag.Duration("history-retention", 24*time.Hour, "how long the history store keeps window-resolution records before compacting them into hour roll-ups")
		freshSLO    = flag.Duration("freshness-slo", 5*time.Second, "per-window freshness target: seal-to-analyzed (and seal-to-durable) latency beyond this burns the SLO budget (0 disables SLO accounting; watermarks stay on)")
		burnTrip    = flag.Int("slo-burn-trip", 3, "consecutive SLO-burned windows on one stage before an anomaly trip (diagnostic bundle)")
		diagMax     = flag.Int("diag-max", 8, "diagnostic bundles retained under <data-dir>/diag before the oldest are removed")
		maxTenants  = flag.Int("max-tenants", 64, "tenant realms admitted before new tenants are rejected")
		schedW      = flag.Int("sched-workers", 4, "shared execution slots the weighted-fair scheduler grants across tenant realms")
	)
	flag.Var(weights, "tenant-weight", "scheduler weight for one tenant as name=weight (repeatable; default 1)")
	flag.Parse()

	level, ok := parseLogLevel(*logLevel)
	if !ok {
		log.Fatalf("unknown log level %q (want debug, info, warn or error)", *logLevel)
	}

	// The tracer always exists: the event log and flight recorder are
	// cheap and on even when span sampling (-trace-sample) is off.
	tr := trace.New(trace.Options{
		SampleEvery:  *traceSample,
		FlightEvents: *flightN,
		LogOutput:    os.Stderr,
		LogLevel:     level,
	})

	reg := telemetry.NewRegistry()
	telemetry.BuildInfo(reg,
		telemetry.Label{Key: "shards", Value: strconv.Itoa(*workers)},
		telemetry.Label{Key: "flags", Value: fmt.Sprintf("window=%v collapse=%g facet=%s live=%v freshness-slo=%v", *window, *collapse, *facet, *live, *freshSLO)})

	cfg := core.Config{Window: *window, Shards: *workers}
	switch *facet {
	case "ip":
		cfg.Facet = graph.FacetIP
	case "ip-port":
		cfg.Facet = graph.FacetIPPort
	default:
		log.Fatalf("unknown facet %q", *facet)
	}
	if *collapse > 0 {
		cfg.Collapse = graph.CollapseOptions{Threshold: *collapse}
	}

	// Every per-tenant watermark tracker observes its realm's per-stage
	// epoch progress: the engine marks windows sealed, the plane's
	// consumers advance published/analyzed stages, the history consumer
	// the durable stage. A stage falling -freshness-slo behind the seal
	// burns that tenant's SLO budget; -slo-burn-trip consecutive burns
	// fire OnBurn, which (like a flight-recorder trip) captures a
	// diagnostic bundle. diagM is assigned before the daemon starts
	// serving, so the callbacks — which can only fire once ingest is
	// underway — always see the final value.
	var diagM *diag.Manager
	var statusSrc atomic.Pointer[statusz.Sources]
	rcfg := realm.Config{
		Engine:     cfg,
		Live:       *live,
		Retention:  *retention,
		Watermark:  watermark.Config{FreshnessTarget: *freshSLO, Trip: *burnTrip},
		DataDir:    *dataDir,
		Hist:       histstore.Options{Retention: *histRet},
		MaxTenants: *maxTenants,
		Workers:    *schedW,
		Weights:    weights,
		Telemetry:  reg,
		Trace:      tr,
		OnBurn: func(tenant, stage string, epoch, consecutive uint64) {
			diagM.TriggerAsync(fmt.Sprintf("freshness SLO burn: tenant %s stage %s %d windows behind target at epoch %d", tenant, stage, consecutive, epoch))
		},
	}
	if *dataDir != "" {
		rcfg.CompactEvery = time.Minute
	}

	m, err := realm.NewManager(rcfg)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	def := m.Default()
	// The unlabeled cloudgraph_watermark_* series keep tracking the
	// default tenant; realm instruments every named tenant's under
	// tenant=<name>.
	def.Watermarks().Instrument(reg)

	if *live {
		log.Printf("analysis plane on: %v (retention=%d)", def.Plane().Runners(), *retention)
	}

	if *dataDir != "" {
		realms := m.Realms()
		recovered := 0
		for _, r := range realms {
			recovered += r.Recovered()
		}
		log.Printf("durable history in %s (%d tenants, recovered %d windows, default resuming at epoch %d, retention=%v)",
			*dataDir, len(realms), recovered, def.Engine().Epoch(), *histRet)

		// Anomaly diagnostic bundles ride the durable directory: a flight
		// -recorder trip or an SLO burn trip snapshots the flight ring,
		// profiles, traces, metrics and status under <data-dir>/diag (a
		// reserved tenant name, so the bundle directory can never be
		// recovered as a realm).
		diagM, err = diag.New(diag.Config{
			Dir:        filepath.Join(*dataDir, "diag"),
			MaxBundles: *diagMax,
			Flight:     tr.Flight(),
			Traces:     tr.Recorder(),
			Registry:   reg,
			// The status sources are only fully assembled once the engine
			// is serving; until then a bundle's status.json is empty.
			Status: func() ([]byte, error) {
				if s := statusSrc.Load(); s != nil {
					return s.JSON()
				}
				return []byte("{}\n"), nil
			},
		})
		if err != nil {
			log.Fatalf("diag: %v", err)
		}
		tr.Flight().SetOnTrip(func(component, reason string) {
			diagM.TriggerAsync("flight trip: " + component + ": " + reason)
		})
		log.Printf("diagnostic bundles in %s (max %d)", filepath.Join(*dataDir, "diag"), *diagMax)
	}

	srv, err := analytics.Serve(*addr, m, analytics.Options{})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (window=%v facet=%s collapse=%g workers=%d trace-sample=%d)",
		srv.Addr(), *window, *facet, *collapse, *workers, *traceSample)

	sources := statusSources(m)
	sources.Flight = tr.Flight()
	sources.Diag = diagM
	sources.Start = time.Now()
	statusSrc.Store(&sources)

	if *opsAddr != "" {
		ops, err := telemetry.ServeOps(*opsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer ops.Close()
		// HandleView wraps each view in the shared GET/HEAD-or-405 contract;
		// only /debug/pprof/ stays outside it (pprof.Symbol accepts POST).
		ops.HandleView("/graphz", analytics.GraphzHandler(m))
		ops.HandleView("/tracez", trace.TracezHandler(tr.Recorder()))
		ops.HandleView("/flightz", trace.FlightzHandler(tr.Flight()))
		status := statusz.Handler(sources)
		ops.HandleView("/statusz", status)
		ops.HandleView("/tenantz", status)
		if *live {
			ops.HandleView("/analyz", analytics.AnalyzHandler(m))
		}
		log.Printf("ops endpoint on http://%s (%s)", ops.Addr(), strings.Join(ops.Views(), " "))
	}

	// SIGQUIT dumps the flight recorder — the last N events and spans
	// leading up to now — without stopping the daemon.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			log.Printf("SIGQUIT: dumping flight recorder")
			if err := tr.DumpFlight(os.Stderr); err != nil {
				log.Printf("flight dump: %v", err)
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	if err := m.Close(); err != nil {
		log.Fatal(err)
	}
}
