package main

import (
	"fmt"
	"time"

	"cloudgraph/internal/cluster"
	"cloudgraph/internal/flowlog"
	"cloudgraph/internal/nicsim"
)

// batchSize is the INGEST batch every workload sends.
const batchSize = 4096

// streamStart is minute 0 of every generated stream, hour-aligned so a
// 60-minute pass fills exactly one hour window.
var streamStart = time.Unix(1700000000, 0).UTC().Truncate(time.Hour)

// dataset names one generated telemetry stream: a cluster preset at a
// scale.
type dataset struct {
	preset string
	scale  float64
}

var (
	usvc = dataset{"microservicebench", 0.25} // ≈11.5K rec/min over a 33-node graph
	k8s  = dataset{"k8spaas", 0.25}           // ≈16K rec/min, ~170 nodes per minute window
)

// seedHours bounds the seeded time shift: a year of hours.
const seedHours = 24 * 365

// generate simulates `minutes` telemetry minutes of the dataset. Every
// record of minute i carries the timestamp of its aggregation interval,
// the way the host agents stamp one: streamStart + i minutes, moved later
// by a whole number of hours drawn from the benchmark seed.
//
// The seed moves the stream in time and nothing else, so every seed costs
// the daemon the same work and run-to-run spread measures the machine, not
// the seed. Both alternatives were measured and do not have that property:
// offsetting the preset seed redraws k8spaas's skewed per-worker rates
// (32 to 52 krec/s over seeds 1–10), and scaling each record's counters by
// a seeded ±10% moves edges across the byte-share thresholds of
// summarize's clique search, whose cost per k8spaas window then ranges
// from 140 to 205 ms by seed.
func generate(ds dataset, seed int64, minutes int) ([][]flowlog.Record, error) {
	spec, err := cluster.Preset(ds.preset, ds.scale)
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(spec)
	if err != nil {
		return nil, err
	}
	shift := time.Duration((seed%seedHours+seedHours)%seedHours) * time.Hour
	out := make([][]flowlog.Record, minutes)
	for i := range out {
		t := streamStart.Add(time.Duration(i) * time.Minute)
		c.Tick(t)
		_, err := c.Fabric().PullAll(t, nicsim.CollectorFunc(func(batch []flowlog.Record) error {
			out[i] = append(out[i], batch...)
			return nil
		}))
		if err != nil {
			return nil, err
		}
		if len(out[i]) == 0 {
			return nil, fmt.Errorf("%s scale %g: minute %d generated no records", ds.preset, ds.scale, i)
		}
		for j := range out[i] {
			out[i][j].Time = out[i][j].Time.Add(shift)
		}
	}
	return out, nil
}

// stream replays a generated hour indefinitely: minute m is generated
// minute m mod len, shifted by whole hours, so any number of windows
// comes from one bounded generation.
type stream struct {
	minutes [][]flowlog.Record
}

// shiftOf is the time shift applied to global minute m.
func (s *stream) shiftOf(m int) time.Duration {
	return time.Duration(m/len(s.minutes)) * time.Duration(len(s.minutes)) * time.Minute
}

// minute appends global minute m's records to dst (thinned to every
// keepEvery-th record) with their shifted timestamps.
func (s *stream) minute(dst []flowlog.Record, m, keepEvery int) []flowlog.Record {
	shift := s.shiftOf(m)
	src := s.minutes[m%len(s.minutes)]
	for i := 0; i < len(src); i += keepEvery {
		r := src[i]
		r.Time = r.Time.Add(shift)
		dst = append(dst, r)
	}
	return dst
}
