package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing series in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// percentile returns the p-th percentile (0 < p < 100) of s by linear
// interpolation between closest ranks; 0 for an empty series.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// beyond is how many of n samples lie above the p-th percentile: the
// metrics guide asks for at least ten before a tail percentile is believed.
func beyond(n int, p float64) int {
	return int(float64(n) * (100 - p) / 100)
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) — the
// exclusive method the acceptance driver uses — so -compare reports the
// same spread the driver computes. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the plain median (mean of the middle pair when even).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}
