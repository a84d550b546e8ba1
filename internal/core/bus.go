package core

import (
	"log/slog"
	"sync"
	"sync/atomic"

	"cloudgraph/internal/graph"
	"cloudgraph/internal/telemetry"
	"cloudgraph/internal/trace"
)

// WindowConsumer receives completed windows from the engine's fan-out bus.
// epoch is the window's position in the engine's completed-window sequence
// (1-based, strictly increasing); the same epoch identifies the window in
// the timeline and in every analysis result, so queries against different
// consumers line up. A consumer runs on its own goroutine and sees windows
// in epoch order, though it may skip epochs if it falls behind (see the
// slow-consumer policy on Bus). Consumers must not call the engine's
// Ingest or Flush — Flush waits for consumers to drain, so a consumer
// flushing would deadlock waiting on itself (cloudgraph-vet's busconsumer
// rule enforces this).
type WindowConsumer func(epoch uint64, g *graph.Graph)

// ConsumerSpec declares one bus consumer registered at engine
// construction via Config.Consumers.
type ConsumerSpec struct {
	// Name labels the consumer in telemetry (bus depth and drop counters)
	// and log events.
	Name string
	// Fn receives each completed window.
	Fn WindowConsumer
	// Buffer is this consumer's queue capacity (0 keeps the default,
	// 64 windows).
	Buffer int
}

// defaultConsumerBuffer is the per-consumer queue capacity when
// ConsumerSpec.Buffer sets none.
const defaultConsumerBuffer = 64

// busItem is one queued window delivery.
type busItem struct {
	epoch uint64
	g     *graph.Graph
}

// busConsumer is one subscriber lane: a bounded FIFO drained by a
// dedicated goroutine. The publisher never blocks on it — when the queue
// is full the oldest undelivered window is dropped (and counted) so the
// freshest view always gets through. A single publisher (the engine's
// close path, serialized by closeMu) guarantees deliveries stay in epoch
// order.
type busConsumer struct {
	name string
	fn   WindowConsumer
	cap  int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []busItem // its length is the consumer's depth
	busy   bool      // fn currently running
	closed bool

	drops     atomic.Uint64
	delivered atomic.Uint64
}

func newBusConsumer(spec ConsumerSpec) *busConsumer {
	buffer := spec.Buffer
	if buffer <= 0 {
		buffer = defaultConsumerBuffer
	}
	c := &busConsumer{name: spec.Name, fn: spec.Fn, cap: buffer}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// publish enqueues one window, dropping the oldest queued item when the
// consumer is at capacity. It never blocks: the merge path must finish in
// window-construction time regardless of how slow any consumer is.
func (c *busConsumer) publish(epoch uint64, g *graph.Graph) (dropped bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	if len(c.queue) >= c.cap {
		// Drop-oldest: a consumer in arrears wants the freshest windows,
		// and analyses resynchronize on the next epoch they do see.
		copy(c.queue, c.queue[1:])
		c.queue = c.queue[:len(c.queue)-1]
		dropped = true
	}
	c.queue = append(c.queue, busItem{epoch: epoch, g: g})
	c.cond.Broadcast()
	c.mu.Unlock()
	if dropped {
		c.drops.Add(1)
	}
	return dropped
}

// loop drains the queue, invoking fn outside the lock. It keeps draining
// after close until the queue is empty, so Close never loses queued
// windows.
func (c *busConsumer) loop() {
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			//lint:allow lockorder Cond.Wait atomically releases c.mu while parked; nothing is held
			c.cond.Wait()
		}
		if len(c.queue) == 0 {
			c.mu.Unlock()
			return
		}
		it := c.queue[0]
		copy(c.queue, c.queue[1:])
		c.queue = c.queue[:len(c.queue)-1]
		c.busy = true
		c.mu.Unlock()
		c.fn(it.epoch, it.g)
		c.delivered.Add(1)
		c.mu.Lock()
		c.busy = false
		c.cond.Broadcast() // wake drain waiters
		c.mu.Unlock()
	}
}

// drain blocks until the queue is empty and no delivery is in flight.
func (c *busConsumer) drain() {
	c.mu.Lock()
	for len(c.queue) > 0 || c.busy {
		//lint:allow lockorder Cond.Wait atomically releases c.mu while parked; nothing is held
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// close stops the loop once the queue drains.
func (c *busConsumer) close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// depth returns how many windows wait in the consumer's queue.
func (c *busConsumer) depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Bus fans completed windows out to the consumers fixed at engine
// construction (Config.Consumers). One bus lives inside each Engine; the
// engine's close path is its only publisher, so every consumer observes
// windows in epoch order.
//
// Slow-consumer policy: each consumer has a bounded queue
// (ConsumerSpec.Buffer, default 64 windows). Publishing never blocks the
// merge path; when a queue is full the oldest undelivered window is
// dropped and counted in cloudgraph_core_bus_dropped_total{consumer=...}.
// A drop skips epochs for that consumer only — the store, the timeline
// and every analysis degrade independently instead of backpressuring
// graph construction.
type Bus struct {
	consumers []*busConsumer
	wg        sync.WaitGroup
	closeOnce sync.Once
	tracer    *trace.Tracer
}

// newBus starts one delivery goroutine per spec with a non-nil Fn.
func newBus(specs []ConsumerSpec, tracer *trace.Tracer) *Bus {
	b := &Bus{tracer: tracer}
	for _, spec := range specs {
		if spec.Fn == nil {
			continue
		}
		c := newBusConsumer(spec)
		b.consumers = append(b.consumers, c)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			c.loop()
		}()
	}
	return b
}

// publish hands one completed window to every consumer.
func (b *Bus) publish(epoch uint64, g *graph.Graph) {
	for _, c := range b.consumers {
		if c.publish(epoch, g) {
			b.tracer.Eventf(trace.Context{}, "core", slog.LevelWarn,
				"bus consumer %q in arrears: dropped oldest queued window (epoch %d published)", c.name, epoch)
		}
	}
}

// Drain blocks until every consumer has processed everything published so
// far. It must not be called from a consumer (that would wait on itself);
// the engine calls it from Flush so tests and the FLUSH command observe a
// fully settled plane.
func (b *Bus) Drain() {
	for _, c := range b.consumers {
		c.drain()
	}
}

// Close drains and stops all consumer goroutines. Windows published
// before Close are still delivered. Idempotent.
func (b *Bus) Close() {
	b.closeOnce.Do(func() {
		for _, c := range b.consumers {
			c.close()
		}
		b.wg.Wait()
	})
}

// ConsumerStat is one bus consumer's point-in-time accounting — the
// /statusz row.
type ConsumerStat struct {
	Name      string `json:"name"`
	Depth     int    `json:"depth"`
	Capacity  int    `json:"capacity"`
	Dropped   uint64 `json:"dropped"`
	Delivered uint64 `json:"delivered"`
}

// Stats returns per-consumer depth, capacity and drop/delivery totals in
// Config.Consumers order.
func (b *Bus) Stats() []ConsumerStat {
	out := make([]ConsumerStat, len(b.consumers))
	for i, c := range b.consumers {
		out[i] = ConsumerStat{
			Name:      c.name,
			Depth:     c.depth(),
			Capacity:  c.cap,
			Dropped:   c.drops.Load(),
			Delivered: c.delivered.Load(),
		}
	}
	return out
}

// instrument registers each consumer's depth, drop and delivery series,
// read from the consumer's own counts, carrying labels after the consumer
// label.
func (b *Bus) instrument(reg *telemetry.Registry, labels []telemetry.Label) {
	for _, c := range b.consumers {
		ls := append([]telemetry.Label{{Key: "consumer", Value: c.name}}, labels...)
		reg.GaugeFunc("cloudgraph_core_bus_depth",
			"windows queued per bus consumer",
			func() float64 { return float64(c.depth()) }, ls...)
		reg.GaugeFunc("cloudgraph_core_bus_dropped_total",
			"windows dropped per bus consumer under the drop-oldest policy",
			func() float64 { return float64(c.drops.Load()) }, ls...)
		reg.GaugeFunc("cloudgraph_core_bus_delivered_total",
			"windows delivered per bus consumer",
			func() float64 { return float64(c.delivered.Load()) }, ls...)
	}
}
