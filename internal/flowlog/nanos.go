package flowlog

import "time"

// nanoSafeSec bounds the times UnixNanos converts: within ±2^33 s of the
// epoch (years 1697–2242) seconds×1e9 cannot overflow an int64.
const nanoSafeSec = 1 << 33

// UnixNanos returns t as nanoseconds since the Unix epoch. ok is false for
// times so far from the epoch that the count would overflow; the ingest
// path routes such records (garbage timestamps off the wire) through its
// time.Time slow path instead of comparing wrapped integers.
func UnixNanos(t time.Time) (ns int64, ok bool) {
	sec := t.Unix()
	if sec < -nanoSafeSec || sec >= nanoSafeSec {
		return 0, false
	}
	return sec*1e9 + int64(t.Nanosecond()), true
}

// NanoSpan returns [start, start+d) in Unix nanoseconds — the cached form
// of one window or aggregation interval that records are routed against
// with two integer compares. When the span is not representable it returns
// the empty range (0, 0), which no record matches.
func NanoSpan(start time.Time, d time.Duration) (lo, hi int64) {
	lo, ok := UnixNanos(start)
	if !ok || lo+int64(d) < lo {
		return 0, 0
	}
	return lo, lo + int64(d)
}
