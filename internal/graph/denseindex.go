package graph

import "math/bits"

// denseIndex is the hash index behind the builder's open-window tables: an
// insertion-ordered set of pointer-free keys. Keys live densely in keys, in
// the order they were first seen, and a key's position there is its id —
// the caller keeps the values in slices parallel to keys. The probe table
// holds one word per slot (the hash's high half as a tag, the id+1 below
// it), so neither it nor the key array holds a pointer the garbage
// collector has to trace, a lookup touches the key array only on a tag
// match, iteration is a slice walk, and reset keeps the capacity.
//
// The caller supplies the hash; its high bits pick the slot and form the
// tag, so they must be well mixed. The zero value is ready to use.
type denseIndex[K comparable] struct {
	slots []uint64 // tag<<32 | id+1; 0 marks an empty slot
	shift uint     // 64 - log2(len(slots)): the hash's top bits pick the slot
	keys  []K
}

const (
	denseMinSlots = 16
	denseTagMask  = uint64(0xffffffff) << 32
)

// findOrAdd returns k's id, appending k when it is new.
func (t *denseIndex[K]) findOrAdd(h uint64, k K) (id int, added bool) {
	if 2*len(t.keys) >= len(t.slots) {
		t.grow()
	}
	tag, mask := h&denseTagMask, uint64(len(t.slots)-1)
	for p := h >> t.shift; ; p = (p + 1) & mask {
		s := t.slots[p]
		if s == 0 {
			t.slots[p] = tag | uint64(len(t.keys)+1)
			t.keys = append(t.keys, k)
			return len(t.keys) - 1, true
		}
		if s&denseTagMask == tag {
			if i := int(uint32(s)) - 1; t.keys[i] == k {
				return i, false
			}
		}
	}
}

// grow doubles the probe table, keeping the load at or under one half.
// Slots re-place from their own tags, so no key is rehashed.
func (t *denseIndex[K]) grow() {
	old := t.slots
	n := max(2*len(old), denseMinSlots)
	t.slots = make([]uint64, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		p := s >> t.shift
		for t.slots[p] != 0 {
			p = (p + 1) & mask
		}
		t.slots[p] = s
	}
}

// reset empties the index, keeping its capacity.
func (t *denseIndex[K]) reset() {
	clear(t.slots)
	t.keys = t.keys[:0]
}
