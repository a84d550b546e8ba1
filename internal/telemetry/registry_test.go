package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// expose renders reg in the Prometheus text format.
func expose(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_records_total", "records seen")
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	g := reg.Gauge("test_depth", "queue depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	// Re-registration returns the same handle.
	if reg.Counter("test_records_total", "records seen") != c {
		t.Error("re-registering a counter returned a new handle")
	}
	if reg.Gauge("test_depth", "queue depth") != g {
		t.Error("re-registering a gauge returned a new handle")
	}
	// Same family, different labels: distinct series.
	a := reg.Counter("test_shard_total", "per shard", Label{"shard", "0"})
	b := reg.Counter("test_shard_total", "per shard", Label{"shard", "1"})
	if a == b {
		t.Error("distinct label sets share a handle")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got, want := h.Sum(), 0.005+0.01+0.05+0.5+5; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	out := expose(t, reg)
	// le is inclusive: 0.01 lands in the first bucket with 0.005.
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.01"} 2`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="1"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz_last_total", "sorts last").Add(1)
	reg.Counter("aa_first_total", "sorts first", Label{"shard", "0"}).Add(2)
	reg.Counter("aa_first_total", "sorts first", Label{"shard", "1"}).Add(3)
	reg.GaugeFunc("mm_sampled", "sampled gauge", func() float64 { return 2.5 })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP aa_first_total sorts first\n# TYPE aa_first_total counter\n",
		`aa_first_total{shard="0"} 2`,
		`aa_first_total{shard="1"} 3`,
		"# TYPE mm_sampled gauge",
		"mm_sampled 2.5",
		"zz_last_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families sort, and HELP/TYPE appear once per family.
	if strings.Count(out, "# TYPE aa_first_total") != 1 {
		t.Error("family header repeated per series")
	}
	if strings.Index(out, "aa_first_total") > strings.Index(out, "zz_last_total") {
		t.Error("families not sorted")
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "")
	g := reg.Gauge("x", "")
	h := reg.Histogram("x_seconds", "", DurBuckets)
	reg.GaugeFunc("x_fn", "", func() float64 { return 1 })
	c.Add(1)
	g.Set(1)
	h.Observe(1)
	sp := StartSpan(h)
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Error("nil handles must stay zero")
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry exposition: %v", err)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestSpanRecordsDuration(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_span_seconds", "", DurBuckets)
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	sp.End()
	if out := expose(t, reg); !strings.Contains(out, "test_span_seconds_count 1\n") {
		t.Fatalf("span not counted once:\n%s", out)
	}
	if h.Sum() <= 0 {
		t.Errorf("span sum = %v, want > 0", h.Sum())
	}
}

// TestRegistryConcurrency hammers registration, updates and exposition
// from many goroutines; run with -race. Registration of the same family
// must converge on one handle so no counts are lost.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("conc_total", "shared").Add(1)
				reg.Counter("conc_shard_total", "per shard", Label{"shard", fmt.Sprint(w % 4)}).Add(1)
				reg.Histogram("conc_seconds", "shared", DurBuckets).Observe(float64(i) * 1e-6)
				reg.Gauge("conc_depth", "shared").Set(int64(i))
				if i%100 == 0 {
					var b strings.Builder
					if err := reg.WritePrometheus(&b); err != nil {
						t.Errorf("exposition: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("conc_total", "shared").Value(); got != workers*perWorker {
		t.Errorf("shared counter = %d, want %d", got, workers*perWorker)
	}
	var perShard int64
	for s := 0; s < 4; s++ {
		perShard += reg.Counter("conc_shard_total", "per shard", Label{"shard", fmt.Sprint(s)}).Value()
	}
	if perShard != workers*perWorker {
		t.Errorf("sharded counters sum to %d, want %d", perShard, workers*perWorker)
	}
	if want := fmt.Sprintf("conc_seconds_count %d\n", workers*perWorker); !strings.Contains(expose(t, reg), want) {
		t.Errorf("exposition lacks %q", want)
	}
}
