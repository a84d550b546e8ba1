package cluster

import (
	"bytes"
	"testing"
	"time"

	"cloudgraph/internal/flowlog"
)

// TestDeterministicReplay pins the invariant cloudgraph-vet's detclock
// analyzer exists to protect: two clusters built from the same spec and
// seed must emit byte-identical flow-log streams. Any ambient clock read,
// global-RNG draw, or map-iteration order leaking into the record stream
// shows up here as a diff.
func TestDeterministicReplay(t *testing.T) {
	run := func() []byte {
		spec := MicroserviceBench(0.2)
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Unix(1700000000, 0).UTC()
		c.AddAttack(PortScan{
			AttackerRole: "frontend",
			TargetRole:   "redis",
			PortsPerMin:  40,
			Start:        start.Add(10 * time.Minute),
			Duration:     10 * time.Minute,
		})
		recs, err := c.CollectHour(start)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatal("cluster emitted no records")
		}
		var stream []byte
		for _, r := range recs {
			stream = flowlog.AppendBinary(stream, r)
		}
		return stream
	}

	first, second := run(), run()
	if !bytes.Equal(first, second) {
		n := len(first)
		if len(second) < n {
			n = len(second)
		}
		at := n
		for i := 0; i < n; i++ {
			if first[i] != second[i] {
				at = i
				break
			}
		}
		t.Fatalf("replay diverged: %d vs %d bytes, first difference at offset %d (record %d)",
			len(first), len(second), at, at/flowlog.WireSize)
	}
}
