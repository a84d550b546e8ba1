// Package radix sorts by an unsigned integer key in linear time: a stable
// least-significant-digit sort, one counting pass per key byte, that skips
// every byte position holding the same value in all keys. The analysis
// kernels use it where a comparator sort of many small records by a
// number would dominate (the kNN survivors of segmentation, the seed
// order of the chatty-clique search). A sort by several keys is several
// calls, least significant key first.
package radix

// A Sorter sorts slices of T by a uint64 key, keeping its buffers from
// one call to the next. The zero value is ready; it is not safe for
// concurrent use.
type Sorter[T any] struct {
	keys, kbuf []uint64
	buf        []T
}

// Sort sorts xs in place by key ascending, stably. key is called once per
// item; the passes then move items and keys between xs and the Sorter's
// buffers.
func (s *Sorter[T]) Sort(xs []T, key func(T) uint64) {
	n := len(xs)
	if n < 2 {
		return
	}
	if cap(s.keys) < n {
		s.keys, s.kbuf, s.buf = make([]uint64, n), make([]uint64, n), make([]T, n)
	}
	keys, kbuf, src, dst := s.keys[:n], s.kbuf[:n], xs, s.buf[:n]
	var count [8][256]int
	for i, x := range xs {
		k := key(x)
		keys[i] = k
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	for d := range count {
		digit, shift := &count[d], 8*d
		if digit[byte(keys[0]>>shift)] == n {
			continue
		}
		off := 0
		for v, c := range digit {
			digit[v] = off
			off += c
		}
		for i, k := range keys {
			v := byte(k >> shift)
			dst[digit[v]], kbuf[digit[v]] = src[i], k
			digit[v]++
		}
		src, dst, keys, kbuf = dst, src, kbuf, keys
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}
