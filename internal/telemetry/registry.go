// Package telemetry is the zero-dependency observability layer of the
// system: a metrics registry (atomic counters, gauges and fixed-bucket
// histograms) exposed in Prometheus text format, lightweight spans for
// hot-path latencies, and an ops HTTP server serving /metrics, /healthz
// and /debug/pprof. The paper's analytics service runs continuously
// against a cloud's full telemetry stream (§1, Fig. 8); this package is
// how that run is watched — shard balance, window lag, wire throughput and
// store growth all report through here, CloudHeatMap-style.
//
// Handles are preallocated at wiring time and lock-free on the hot path:
// Add/Set/Observe are a few atomic operations, and every handle method is
// a no-op on a nil receiver, so an instrumented code path costs one
// predictable branch when telemetry is disabled.
package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value pair distinguishing a series within its family
// (e.g. shard="3" on the per-shard ingest counters).
type Label struct{ Key, Value string }

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// String renders the Prometheus TYPE keyword; a GaugeFunc is a gauge on
// the wire.
func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one registered series: a family name plus a fixed label set
// and the typed value behind it.
type metric struct {
	name   string
	help   string
	kind   kind
	labels []Label
	key    string // name + rendered labels; the dedupe and sort key

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Registry holds registered metrics and renders them in the Prometheus
// text exposition format. Registration takes a mutex; the handles it
// returns are lock-free. Registering the same (name, labels) twice returns
// the same handle, so independent packages can grab shared families
// without coordinating. Re-registering a key under a different kind panics
// — that is a wiring bug, not a runtime condition.
//
// All methods are safe on a nil *Registry and return nil handles, which
// are themselves no-ops: pass a nil registry to disable telemetry.
type Registry struct {
	start time.Time
	mu    sync.Mutex
	byKey map[string]*metric
}

// NewRegistry returns an empty registry; its creation time anchors the
// uptime gauge the ops server registers.
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), byKey: make(map[string]*metric)}
}

// lookup returns the metric registered under key after checking its kind.
// Caller holds r.mu.
func (r *Registry) lookup(key string, k kind) *metric {
	m, ok := r.byKey[key]
	if !ok {
		return nil
	}
	if m.kind != k {
		panic(fmt.Sprintf("telemetry: %s already registered as %s, not %s", key, m.kind, k))
	}
	return m
}

// add registers m under its key. Caller holds r.mu.
func (r *Registry) add(m *metric) {
	r.byKey[m.key] = m
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := name + labelString(labels, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(key, kindCounter); m != nil {
		return m.counter
	}
	m := &metric{name: name, help: help, kind: kindCounter, labels: labels, key: key, counter: &Counter{}}
	r.add(m)
	return m.counter
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := name + labelString(labels, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(key, kindGauge); m != nil {
		return m.gauge
	}
	m := &metric{name: name, help: help, kind: kindGauge, labels: labels, key: key, gauge: &Gauge{}}
	r.add(m)
	return m.gauge
}

// GaugeFunc registers a gauge sampled by calling fn at exposition time —
// for values the owner already maintains (open windows, flow-table
// occupancy). fn must be safe to call from any goroutine; it is never
// called with the registry lock held. Registering an existing key keeps
// the first fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	key := name + labelString(labels, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(key, kindGaugeFunc); m != nil {
		return
	}
	r.add(&metric{name: name, help: help, kind: kindGaugeFunc, labels: labels, key: key, fn: fn})
}

// Histogram registers (or returns the existing) histogram series with the
// given upper bucket bounds (an overflow +Inf bucket is implicit). The
// bounds of the first registration win.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := name + labelString(labels, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(key, kindHistogram); m != nil {
		return m.hist
	}
	m := &metric{name: name, help: help, kind: kindHistogram, labels: labels, key: key, hist: newHistogram(bounds)}
	r.add(m)
	return m.hist
}

// WritePrometheus renders every registered series in the text exposition
// format, grouped by family in sorted order. Gauge functions are invoked
// without the registry lock held, so they may take their owners' locks.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.byKey))
	for _, m := range r.byKey {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })

	var buf bytes.Buffer
	family := ""
	for _, m := range ms {
		if m.name != family {
			family = m.name
			fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		}
		ls := labelString(m.labels, nil)
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&buf, "%s%s %d\n", m.name, ls, m.counter.Value())
		case kindGauge:
			fmt.Fprintf(&buf, "%s%s %d\n", m.name, ls, m.gauge.Value())
		case kindGaugeFunc:
			fmt.Fprintf(&buf, "%s%s %s\n", m.name, ls, formatFloat(m.fn()))
		case kindHistogram:
			m.hist.write(&buf, m.name, m.labels)
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// Handler serves the registry over HTTP — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			return // scraper went away mid-response; nothing to clean up
		}
	})
}

// labelString renders a label set as {k="v",...}; extra labels (the
// histogram le) append after the fixed set. An empty set renders "".
func labelString(labels, extra []Label) string {
	if len(labels)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		writeLabel(&b, l)
	}
	for i, l := range extra {
		if len(labels)+i > 0 {
			b.WriteByte(',')
		}
		writeLabel(&b, l)
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func writeLabel(b *strings.Builder, l Label) {
	b.WriteString(l.Key)
	b.WriteString(`="`)
	b.WriteString(labelEscaper.Replace(l.Value))
	b.WriteByte('"')
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing metric. The zero value is ready;
// a nil *Counter is a no-op, which is how disabled telemetry costs only a
// branch on the hot path.
type Counter struct{ v atomic.Int64 }

// Add credits n observations.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value. The zero value is ready; a nil
// *Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed cumulative buckets. Observe is
// lock-free: one bucket increment, one count increment, and a CAS loop for
// the running sum. A nil *Histogram is a no-op.
type Histogram struct {
	bounds []float64       // ascending upper bounds (le semantics)
	counts []atomic.Uint64 // one per bound, plus the +Inf overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits

	// Exemplar slot: the most recent observation that carried a trace ID
	// (ObserveEx), linking the aggregate distribution back to one concrete
	// /tracez trace. Two words racing independently is fine — an exemplar
	// is an illustration, not an invariant.
	exTrace atomic.Uint64
	exValue atomic.Uint64 // float64 bits
}

// DurBuckets are the default latency buckets: eight decades from 1µs to
// 10s, matching the spread between a shard fold and a full-window merge.
var DurBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// CountBuckets suit small cardinalities such as windows closed per merge.
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

func newHistogram(bounds []float64) *Histogram {
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is exactly Prometheus' inclusive le bucket; misses
	// land in the +Inf overflow slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds, the Prometheus base unit.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// ObserveEx records one sample and, when traceID is non-zero, stores it as
// the histogram's exemplar — the concrete trace that illustrates the
// distribution's recent behaviour on /tracez.
func (h *Histogram) ObserveEx(v float64, traceID uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID != 0 {
		h.exValue.Store(math.Float64bits(v))
		h.exTrace.Store(traceID)
	}
}

// Exemplar returns the last trace-linked observation (0, 0 when none).
func (h *Histogram) Exemplar() (traceID uint64, v float64) {
	if h == nil {
		return 0, 0
	}
	return h.exTrace.Load(), math.Float64frombits(h.exValue.Load())
}

// Sum returns the running total of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// write renders the histogram exposition: cumulative buckets, sum, count.
// Concurrent Observes may skew a snapshot by a sample; scrapes are
// best-effort views, not barriers.
func (h *Histogram) write(buf *bytes.Buffer, name string, labels []Label) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(buf, "%s_bucket%s %d\n", name, labelString(labels, []Label{{"le", formatFloat(bound)}}), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(buf, "%s_bucket%s %d\n", name, labelString(labels, []Label{{"le", "+Inf"}}), cum)
	fmt.Fprintf(buf, "%s_sum%s %s\n", name, labelString(labels, nil), formatFloat(h.Sum()))
	fmt.Fprintf(buf, "%s_count%s %d\n", name, labelString(labels, nil), cum)
	// The exemplar rides as a comment so plain text-format parsers skip
	// it; scrapers that understand it can jump from the distribution to
	// the concrete trace on /tracez.
	if id, v := h.Exemplar(); id != 0 {
		fmt.Fprintf(buf, "# exemplar %s%s trace_id=\"%016x\" value=%s\n",
			name, labelString(labels, nil), id, formatFloat(v))
	}
}
