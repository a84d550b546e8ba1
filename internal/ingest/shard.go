// Package ingest holds the streaming-side building blocks of the analytics
// system (§3.2) that sit beside the engine's sharded hot path: the flow-key
// shard function both reports of a flow agree on, a space-saving sketch
// tracking heavy-hitter nodes online, and a meter accounting for the COGS
// the paper argues must stay below roughly a 0.5% surcharge.
package ingest

import (
	"encoding/binary"
	"math/bits"
	"net/netip"

	"cloudgraph/internal/flowlog"
)

// shardSeed keeps sharding deterministic across runs.
const shardSeed = 0x51ed2701

// ShardOf hashes a flow key onto one of n shards. Both reports of an
// intra-subscription flow carry the same directionless key, so they always
// land in the same shard — the property the deduplication window depends
// on. The engine's sharded hot path (internal/core) routes records by it
// through ShardOfRecord.
func ShardOf(k flowlog.FlowKey, n int) int {
	return shardOf(endpointHash(k.A.Addr(), k.A.Port()), endpointHash(k.B.Addr(), k.B.Port()), n)
}

// ShardOfRecord is ShardOf(r.Key(), n) without building the key: the two
// endpoint hashes combine commutatively, so the record's local/remote order
// gives the same shard as the key's canonical one.
//
//vet:borrowed r
func ShardOfRecord(r *flowlog.Record, n int) int {
	return shardOf(endpointHash(r.LocalIP, r.LocalPort), endpointHash(r.RemoteIP, r.RemotePort), n)
}

// endpointHash mixes one endpoint as three words — the address's two
// 64-bit halves and the port — a multiply and a rotate each, where FNV-1a
// took a dependent multiply per byte.
func endpointHash(ip netip.Addr, port uint16) uint64 {
	a := ip.As16()
	h := (binary.BigEndian.Uint64(a[:8]) ^ shardSeed) * 0x9e3779b97f4a7c15
	h = (bits.RotateLeft64(h, 32) ^ binary.BigEndian.Uint64(a[8:])) * 0xbf58476d1ce4e5b9
	return (bits.RotateLeft64(h, 32) ^ uint64(port)) * 0x94d049bb133111eb
}

// shardOf sums the endpoint hashes (order-free), avalanches the sum and
// scales its high half onto [0, n).
func shardOf(a, b uint64, n int) int {
	h := a + b
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return int((h >> 32) * uint64(n) >> 32)
}
