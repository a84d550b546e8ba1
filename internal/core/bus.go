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
	queue  []busItem
	busy   bool // fn currently running
	closed bool

	depth     *telemetry.Gauge
	drops     *telemetry.Counter
	delivered *telemetry.Counter

	// Plain counters mirror the telemetry handles so Bus.Stats (the
	// /statusz view) works with telemetry disabled too.
	dropsN     atomic.Uint64
	deliveredN atomic.Uint64
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
	c.depth.Set(int64(len(c.queue)))
	c.cond.Broadcast()
	c.mu.Unlock()
	if dropped {
		c.drops.Add(1)
		c.dropsN.Add(1)
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
			//lint:allow lockscope Cond.Wait atomically releases c.mu while parked; nothing is held
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
		c.depth.Set(int64(len(c.queue)))
		c.mu.Unlock()
		c.fn(it.epoch, it.g)
		c.delivered.Add(1)
		c.deliveredN.Add(1)
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
		//lint:allow lockscope Cond.Wait atomically releases c.mu while parked; nothing is held
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

// Bus fans completed windows out to registered consumers. One bus lives
// inside each Engine; the engine's close path is its only publisher, so
// every consumer observes windows in epoch order.
//
// Slow-consumer policy: each consumer has a bounded queue
// (ConsumerSpec.Buffer, default 64 windows). Publishing never blocks the
// merge path; when a queue is full the oldest undelivered window is
// dropped and counted in cloudgraph_core_bus_dropped_total{consumer=...}.
// A drop skips epochs for that consumer only — the store, the timeline
// and every analysis degrade independently instead of backpressuring
// graph construction.
type Bus struct {
	mu        sync.Mutex
	consumers []*busConsumer
	wg        sync.WaitGroup
	closed    bool
	reg       *telemetry.Registry
	tracer    *trace.Tracer
}

func newBus(reg *telemetry.Registry, tracer *trace.Tracer) *Bus {
	return &Bus{reg: reg, tracer: tracer}
}

// Subscribe registers a consumer and starts its delivery goroutine.
// Consumers registered after windows have completed simply miss the
// earlier epochs. Subscribing on a closed bus is a no-op.
func (b *Bus) Subscribe(spec ConsumerSpec) {
	if spec.Fn == nil {
		return
	}
	c := newBusConsumer(spec)
	if b.reg != nil {
		label := telemetry.Label{Key: "consumer", Value: c.name}
		c.depth = b.reg.Gauge("cloudgraph_core_bus_depth",
			"windows queued per bus consumer", label)
		c.drops = b.reg.Counter("cloudgraph_core_bus_dropped_total",
			"windows dropped per bus consumer under the drop-oldest policy", label)
		c.delivered = b.reg.Counter("cloudgraph_core_bus_delivered_total",
			"windows delivered per bus consumer", label)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.consumers = append(b.consumers, c)
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		c.loop()
	}()
}

// snapshot returns the current consumer set.
func (b *Bus) snapshot() []*busConsumer {
	b.mu.Lock()
	out := make([]*busConsumer, len(b.consumers))
	copy(out, b.consumers)
	b.mu.Unlock()
	return out
}

// publish hands one completed window to every consumer.
func (b *Bus) publish(epoch uint64, g *graph.Graph) {
	for _, c := range b.snapshot() {
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
	for _, c := range b.snapshot() {
		c.drain()
	}
}

// Close drains and stops all consumer goroutines. Windows published
// before Close are still delivered. Idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	consumers := make([]*busConsumer, len(b.consumers))
	copy(consumers, b.consumers)
	b.mu.Unlock()
	for _, c := range consumers {
		c.close()
	}
	b.wg.Wait()
}

// Consumers returns the registered consumer names in subscription order.
func (b *Bus) Consumers() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, len(b.consumers))
	for i, c := range b.consumers {
		out[i] = c.name
	}
	return out
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
// subscription order. Unlike the telemetry handles these always count, so
// the view works on an uninstrumented engine.
func (b *Bus) Stats() []ConsumerStat {
	consumers := b.snapshot()
	out := make([]ConsumerStat, len(consumers))
	for i, c := range consumers {
		c.mu.Lock()
		depth := len(c.queue)
		c.mu.Unlock()
		out[i] = ConsumerStat{
			Name:      c.name,
			Depth:     depth,
			Capacity:  c.cap,
			Dropped:   c.dropsN.Load(),
			Delivered: c.deliveredN.Load(),
		}
	}
	return out
}

// Depth returns the queued-window count for the named consumer (0 if
// unknown).
func (b *Bus) Depth(name string) int {
	for _, c := range b.snapshot() {
		if c.name == name {
			c.mu.Lock()
			n := len(c.queue)
			c.mu.Unlock()
			return n
		}
	}
	return 0
}
