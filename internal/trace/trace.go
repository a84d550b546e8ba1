// Package trace is the causal layer of the observability stack: where
// internal/telemetry answers "how is the pipeline doing in aggregate", this
// package answers "what happened to THIS connection summary". A sampled
// record is assigned a TraceContext at the simulated NIC and the context
// travels with it through every Figure 8 stage — host-agent pull, the
// analytics wire protocol, the engine's ingest shards, the cross-shard
// window merge, and the final store append — leaving one timed span per
// stage in a per-trace buffer served by the /tracez ops endpoint.
//
// Three pieces, all stdlib-only and nil-safe in the internal/telemetry
// house style (a disabled tracer costs one branch per instrumentation
// point):
//
//   - TraceContext + Sampler: 64-bit trace and span IDs drawn from a
//     deterministic seeded sequence, so two runs over the same workload
//     sample the same records and replay stays byte-identical (sampling
//     never alters the record stream — contexts travel out of band).
//   - Recorder: bounded per-trace span buffers behind /tracez (list and
//     per-trace waterfall, text or JSON).
//   - Flight + the slog event layer: component-scoped structured logging
//     with trace IDs attached, mirrored into a fixed-size lock-free ring
//     that dumps the seconds before a fault on demand (/flightz), on
//     SIGQUIT, or when an anomaly trips (protocol error, window flush
//     lag, store fsync failure).
package trace

import "sync/atomic"

// Context identifies one sampled record's journey through the pipeline: a
// 64-bit trace ID shared by every span of the journey plus a span ID
// seeding per-stage parentage. The zero Context means "not sampled" and
// makes every instrumentation point a no-op.
//
// Context is a small value type and must be passed by value — sharing one
// *Context between pipeline stages that run on different goroutines is a
// data race.
type Context struct {
	TraceID uint64
	SpanID  uint64
}

// Sampled reports whether the context belongs to a sampled record.
func (c Context) Sampled() bool { return c.TraceID != 0 }

// Sampler decides which records get a TraceContext, deterministically:
// record n of the stream is sampled iff n is a multiple of the rate, and
// the k-th sampled record always receives the trace ID derived from
// (seed, k) by splitmix64. Two runs with the same seed and the same record
// order therefore sample the same records with the same IDs, which keeps
// traced replays comparable run-over-run.
//
// Next is one atomic add on the unsampled path. A nil Sampler never
// samples.
type Sampler struct {
	every uint64
	seed  uint64
	n     atomic.Uint64
}

// NewSampler returns a sampler emitting a context for one in every `every`
// records, seeded deterministically. every <= 0 disables sampling (the
// returned sampler never emits).
func NewSampler(every int, seed uint64) *Sampler {
	if every <= 0 {
		return &Sampler{}
	}
	return &Sampler{every: uint64(every), seed: seed}
}

// Next advances the record counter and returns the context for this
// record: a sampled context every `every` records, the zero Context
// otherwise.
func (s *Sampler) Next() Context {
	if s == nil || s.every == 0 {
		return Context{}
	}
	n := s.n.Add(1)
	if n%s.every != 0 {
		return Context{}
	}
	k := n / s.every
	id := splitmix64(s.seed + k)
	if id == 0 {
		id = 1 // zero means unsampled; remap the one-in-2^64 collision
	}
	return Context{TraceID: id, SpanID: splitmix64(id)}
}

// splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mixer, the
// standard way to expand a small seed into well-distributed IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
