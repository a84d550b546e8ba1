package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/graph"
	"cloudgraph/internal/telemetry"
)

// busRecs builds a tiny deterministic batch spanning n hourly windows.
func busRecs(n int) []flowlog.Record {
	recs := make([]flowlog.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, rec(t0.Add(time.Duration(i)*time.Hour), 1000, 100))
	}
	return recs
}

// TestBusFanOut: every consumer sees every window, in epoch order, with
// epochs starting at 1 and contiguous; Flush drains all consumers.
func TestBusFanOut(t *testing.T) {
	type seen struct {
		mu     sync.Mutex
		epochs []uint64
	}
	var a, b seen
	collect := func(s *seen) WindowConsumer {
		return func(epoch uint64, g *graph.Graph) {
			s.mu.Lock()
			s.epochs = append(s.epochs, epoch)
			s.mu.Unlock()
		}
	}
	e := NewEngine(Config{
		Window: time.Hour,
		Consumers: []ConsumerSpec{
			{Name: "a", Fn: collect(&a)},
			{Name: "b", Fn: collect(&b)},
		},
	})
	defer e.Close()
	e.Ingest(busRecs(4))
	e.Flush()
	for name, s := range map[string]*seen{"a": &a, "b": &b} {
		s.mu.Lock()
		got := append([]uint64(nil), s.epochs...)
		s.mu.Unlock()
		if len(got) != 4 {
			t.Fatalf("consumer %s saw %d windows, want 4 (Flush must drain)", name, len(got))
		}
		for i, ep := range got {
			if ep != uint64(i+1) {
				t.Fatalf("consumer %s epochs = %v, want contiguous from 1", name, got)
			}
		}
	}
	if e.Epoch() != 4 {
		t.Fatalf("Epoch() = %d, want 4", e.Epoch())
	}
}

// TestBusOnWindowCompat: what replaced the legacy OnWindow hook — a plain
// per-window func riding the bus as a consumer — still observes every
// window by the time Flush returns.
func TestBusOnWindowCompat(t *testing.T) {
	var mu sync.Mutex
	var n int
	onWindow := func(g *graph.Graph) {
		mu.Lock()
		n++
		mu.Unlock()
	}
	e := NewEngine(Config{
		Window:    time.Hour,
		Consumers: []ConsumerSpec{{Name: "hook", Fn: func(_ uint64, g *graph.Graph) { onWindow(g) }}},
	})
	defer e.Close()
	e.Ingest(busRecs(3))
	e.Flush()
	mu.Lock()
	defer mu.Unlock()
	if n != 3 {
		t.Fatalf("OnWindow fired %d times, want 3", n)
	}
	if got := e.Bus().Consumers(); len(got) != 1 || got[0] != "hook" {
		t.Fatalf("bus consumers = %v, want [hook]", got)
	}
}

// TestBusDropOldest: a consumer slower than the stream loses the oldest
// queued windows — never the newest — and the drops are counted; the
// publisher is never blocked.
func TestBusDropOldest(t *testing.T) {
	reg := telemetry.NewRegistry()
	entered := make(chan struct{}) // closed when the first delivery is in flight
	release := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var got []uint64
	e := NewEngine(Config{
		Window:    time.Hour,
		Telemetry: reg,
		Consumers: []ConsumerSpec{{
			Name:   "slow",
			Buffer: 2,
			Fn: func(epoch uint64, g *graph.Graph) {
				once.Do(func() { close(entered) })
				<-release // hold deliveries until all windows are published
				mu.Lock()
				got = append(got, epoch)
				mu.Unlock()
			},
		}},
	})
	defer e.Close()

	all := busRecs(6)
	e.Ingest(all[:2]) // closes the first window: epoch 1 delivered
	<-entered         // epoch 1 now in flight, queue empty
	// Publish epochs 2..6 while the consumer is stuck. The queue holds 2,
	// so only the newest two survive: 4 evicts 2, 5 evicts 3, 6 evicts 4.
	e.Ingest(all[2:])
	e.closeMu.Lock()
	e.closeShards(time.Time{}, true)
	e.closeMu.Unlock()
	// All six published (publish never blocks even with fn stuck).
	if e.Epoch() != 6 {
		t.Fatalf("Epoch() = %d before release, want 6 (publisher must not block)", e.Epoch())
	}
	close(release)
	e.bus.Drain()

	mu.Lock()
	defer mu.Unlock()
	// Deterministic final state: epoch 1 in flight, epochs 5 and 6 queued.
	want := []uint64{1, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("delivered epochs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered epochs = %v, want %v", got, want)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `cloudgraph_core_bus_dropped_total{consumer="slow"} 3`) {
		t.Fatalf("drop counter missing or wrong:\n%s", b.String())
	}
}

// TestBusCloseIdempotent: Close twice, and Close delivers queued windows.
func TestBusCloseIdempotent(t *testing.T) {
	var mu sync.Mutex
	var n int
	e := NewEngine(Config{
		Window: time.Hour,
		Consumers: []ConsumerSpec{{Name: "c", Fn: func(uint64, *graph.Graph) {
			mu.Lock()
			n++
			mu.Unlock()
		}}},
	})
	e.Ingest(busRecs(2))
	e.closeMu.Lock()
	e.closeShards(time.Time{}, true)
	e.closeMu.Unlock()
	e.Close() // must deliver both queued windows before stopping
	e.Close()
	mu.Lock()
	defer mu.Unlock()
	if n != 2 {
		t.Fatalf("consumer saw %d windows across Close, want 2", n)
	}
}

// TestBusLateSubscribe: a consumer added after some windows completed sees
// only the later epochs.
func TestBusLateSubscribe(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	e := NewEngine(Config{Window: time.Hour})
	defer e.Close()
	e.Ingest(busRecs(2))
	e.closeMu.Lock()
	e.closeShards(time.Time{}, true)
	e.closeMu.Unlock()
	first := e.Epoch()
	e.Subscribe(ConsumerSpec{Name: "late", Fn: func(epoch uint64, g *graph.Graph) {
		mu.Lock()
		got = append(got, epoch)
		mu.Unlock()
	}})
	e.Ingest(busRecs(4)[first:]) // two more hourly windows
	e.Flush()
	mu.Lock()
	defer mu.Unlock()
	for _, ep := range got {
		if ep <= first {
			t.Fatalf("late subscriber saw pre-subscription epoch %d (subscribed after %d)", ep, first)
		}
	}
	if len(got) == 0 {
		t.Fatal("late subscriber saw nothing")
	}
}
