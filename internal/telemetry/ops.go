package telemetry

import (
	"encoding/json"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"
)

// OpsServer is the daemon's operational HTTP endpoint: /metrics in
// Prometheus text format, /healthz for liveness probes, and the stdlib
// /debug/pprof profiles. Extra views (cloudgraphd's /graphz heatmap)
// attach via Handle.
type OpsServer struct {
	ln  net.Listener
	mux *http.ServeMux
	srv *http.Server

	// viewMu guards views, the read-only patterns registered through
	// HandleView (plus the built-ins) — the route inventory the method
	// -contract test walks.
	viewMu sync.Mutex
	views  []string
}

// ServeOps starts the ops endpoint on addr (e.g. "127.0.0.1:9443"). A nil
// registry gets a fresh one so /metrics always serves. Process-level
// gauges (uptime, goroutines, heap) are registered on reg as a side
// effect.
func ServeOps(addr string, reg *Registry) (*OpsServer, error) {
	if reg == nil {
		reg = NewRegistry()
	}
	registerProcessMetrics(reg)
	mux := http.NewServeMux()
	// pprof's handlers normally live on DefaultServeMux via its package
	// init; wiring them explicitly keeps the ops mux self-contained. They
	// are NOT views: pprof.Symbol legitimately accepts POST, so they stay
	// outside the GetOnly contract.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	o := &OpsServer{
		ln:  ln,
		mux: mux,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	o.HandleView("/metrics", reg.Handler())
	o.HandleView("/healthz", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := io.WriteString(w, "ok\n"); err != nil {
			return // probe went away; nothing to clean up
		}
	}))
	go o.serve()
	return o, nil
}

func (o *OpsServer) serve() {
	if err := o.srv.Serve(o.ln); err != nil && err != http.ErrServerClosed {
		// The ops endpoint is best-effort: a late serve error has no
		// caller left to return to, only the log.
		log.Printf("telemetry: ops server: %v", err)
	}
}

// Addr returns the bound listen address (useful with ":0").
func (o *OpsServer) Addr() string { return o.ln.Addr().String() }

// Handle attaches an extra handler under pattern with no method gating —
// for routes with their own method contract (pprof). Read-only views
// belong on HandleView. Safe to call while the server runs; panics if
// pattern is already taken (http.ServeMux rules).
func (o *OpsServer) Handle(pattern string, h http.Handler) {
	o.mux.Handle(pattern, h)
}

// HandleView attaches a read-only view under pattern: the handler is
// wrapped in GetOnly, so every view shares the GET/HEAD-or-405 contract,
// and the pattern is recorded so Views can enumerate the ops surface.
func (o *OpsServer) HandleView(pattern string, h http.Handler) {
	o.mux.Handle(pattern, GetOnly(h))
	o.viewMu.Lock()
	o.views = append(o.views, pattern)
	o.viewMu.Unlock()
}

// Views returns the patterns registered through HandleView (including the
// built-in /metrics and /healthz), sorted — the route inventory tests
// walk to verify the method contract holds everywhere.
func (o *OpsServer) Views() []string {
	o.viewMu.Lock()
	out := make([]string, len(o.views))
	copy(out, o.views)
	o.viewMu.Unlock()
	sort.Strings(out)
	return out
}

// Close shuts the endpoint down immediately, dropping open scrapes.
func (o *OpsServer) Close() error {
	return o.srv.Close()
}

// GetOnly restricts h to GET and HEAD requests, answering anything else
// with 405 and an Allow header — the read-only contract every ops view
// shares. (net/http already suppresses response bodies on HEAD, so a
// wrapped handler needs no HEAD-specific code.)
func GetOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			h.ServeHTTP(w, r)
		default:
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

// WriteJSON answers an ops view with v as indented JSON — the one writer
// behind every JSON view. A client that went away mid-response is ignored.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return // client went away mid-response
	}
}

// registerProcessMetrics adds the process-level gauges every ops endpoint
// wants; GaugeFunc keeps the first registration, so calling this for a
// registry that already has them is a no-op. Scheduler and GC figures
// come from runtime/metrics, which reads counters the runtime already
// maintains instead of stopping the world the way ReadMemStats does.
func registerProcessMetrics(reg *Registry) {
	reg.GaugeFunc("cloudgraph_process_uptime_seconds",
		"seconds since the telemetry registry was created",
		func() float64 { return time.Since(reg.start).Seconds() })
	reg.GaugeFunc("cloudgraph_process_goroutines",
		"live goroutines in the process",
		runtimeMetricFunc("/sched/goroutines:goroutines",
			func() float64 { return float64(runtime.NumGoroutine()) }))
	reg.GaugeFunc("cloudgraph_process_heap_alloc_bytes",
		"heap bytes currently allocated",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("cloudgraph_process_gc_pause_seconds_total",
		"approximate cumulative stop-the-world GC pause time",
		runtimeMetricFunc("/gc/pauses:seconds", func() float64 { return 0 }))
	reg.GaugeFunc("cloudgraph_process_gc_cycles_total",
		"completed GC cycles",
		runtimeMetricFunc("/gc/cycles/total:gc-cycles",
			func() float64 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return float64(ms.NumGC)
			}))
}

// runtimeMetricFunc returns a gauge function backed by one runtime/metrics
// sample. Counter and gauge kinds read directly; histogram kinds (the GC
// pause distribution) are summed as count × bucket midpoint — an
// approximation, but a stable one, and the only total the runtime exposes.
// fallback covers metrics a future runtime might drop (KindBad).
func runtimeMetricFunc(name string, fallback func() float64) func() float64 {
	sample := []metrics.Sample{{Name: name}}
	return func() float64 {
		metrics.Read(sample)
		switch sample[0].Value.Kind() {
		case metrics.KindUint64:
			return float64(sample[0].Value.Uint64())
		case metrics.KindFloat64:
			return sample[0].Value.Float64()
		case metrics.KindFloat64Histogram:
			h := sample[0].Value.Float64Histogram()
			var total float64
			for i, n := range h.Counts {
				lo, hi := h.Buckets[i], h.Buckets[i+1]
				// Skip empty and unbounded edge buckets: an infinite
				// midpoint times even a zero count poisons the total.
				if n == 0 || lo < 0 || math.IsInf(hi, 1) {
					continue
				}
				total += float64(n) * (lo + hi) / 2
			}
			return total
		default:
			return fallback()
		}
	}
}

// BuildInfo registers the cloudgraph_build_info gauge: constant value 1
// with the build identity as labels (Go version, GOMAXPROCS) plus any
// caller-supplied labels (cloudgraphd adds shard count and a flags
// summary). The info-series idiom lets dashboards join build identity
// onto every other series.
func BuildInfo(reg *Registry, extra ...Label) {
	if reg == nil {
		return
	}
	labels := append([]Label{
		{Key: "go_version", Value: runtime.Version()},
		{Key: "gomaxprocs", Value: strconv.Itoa(runtime.GOMAXPROCS(0))},
	}, extra...)
	reg.Gauge("cloudgraph_build_info",
		"build and runtime identity (constant 1; the labels are the data)",
		labels...).Set(1)
}
