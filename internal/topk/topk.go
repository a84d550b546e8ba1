// Package topk keeps the k first items of a stream under a ranking without
// sorting the stream: a bounded heap whose root is the k-th item so far, so
// an item that does not beat it costs one comparison. The analysis kernels
// use it where an answer keeps a few of many candidates (the kNN filter of
// segmentation, the proximity list of capacity planning).
package topk

// Offer adds x to h, a heap of at most k items that only Offer has built,
// and returns the updated heap. order(a, b) < 0 when a ranks ahead of b; it
// must be a total order over the items offered, so the heap ends with the
// same k items whatever order they arrive in. h[0] is the last of them; the
// rest are in heap order, not rank order. Cost: O(log k) per accepted item,
// one comparison per rejected one.
func Offer[T any](h []T, k int, x T, order func(a, b T) int) []T {
	i := len(h)
	if i < k {
		// Sift up: a parent ranks behind its children.
		h = append(h, x)
		for i > 0 {
			parent := (i - 1) / 2
			if order(h[parent], x) > 0 {
				break
			}
			h[i] = h[parent]
			i = parent
		}
		h[i] = x
		return h
	}
	if k <= 0 || order(x, h[0]) >= 0 {
		return h
	}
	// x displaces the root: sift it down.
	i = 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && order(h[r], h[c]) > 0 {
			c = r
		}
		if order(h[c], x) <= 0 {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
	return h
}
