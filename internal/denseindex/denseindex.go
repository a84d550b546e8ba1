// Package denseindex is the repo's one open-addressing hash index: an
// insertion-ordered set of pointer-free keys that costs what its stored
// keys cost. The graph builder interns a window's flows, endpoints and
// edges with it; the NIC simulator keeps each VNIC's resident flows in it.
package denseindex

import "math/bits"

// Index is an insertion-ordered set of pointer-free keys. Keys live densely
// in keys, and a key's position there is its id — the caller keeps the
// values in slices parallel to keys. The probe table holds one word per
// slot (the hash's high half as a tag, the id+1 below it), so neither it
// nor the key array holds a pointer the garbage collector has to trace, a
// lookup touches the key array only on a tag match, iteration is a slice
// walk, and Reset keeps the capacity.
//
// pos holds each id's probe slot, so Remove finds the slot to free and the
// slot of the key it moves without probing. The first Remove builds it
// from the probe table; an index that never removes (the graph builder's)
// keeps none. A slot's home position is the top bits of its stored tag, so
// neither growth nor removal rehashes a key.
//
// The caller supplies the hash; its high bits pick the slot and form the
// tag, so they must be well mixed (Mix does that). The zero value is ready
// to use.
type Index[K comparable] struct {
	slots []uint64 // tag<<32 | id+1; 0 marks an empty slot
	shift uint     // 64 - log2(len(slots)): the hash's top bits pick the slot
	keys  []K
	pos   []uint32 // pos[id] is the slot holding id; nil until the first Remove
}

const (
	minSlots = 16
	tagMask  = uint64(0xffffffff) << 32
)

// Mix folds two words through a 128-bit product; every input bit reaches
// the high bits Index reads.
func Mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Keys returns the keys in id order. The slice is the index's own: read
// it, do not keep it past the next FindOrAdd, Remove or Reset.
func (t *Index[K]) Keys() []K { return t.keys }

// FindOrAdd returns k's id, appending k when it is new. h is k's hash.
func (t *Index[K]) FindOrAdd(h uint64, k K) (id int, added bool) {
	if 2*len(t.keys) >= len(t.slots) {
		t.grow()
	}
	tag, mask := h&tagMask, uint64(len(t.slots)-1)
	for p := h >> t.shift; ; p = (p + 1) & mask {
		s := t.slots[p]
		if s == 0 {
			t.slots[p] = tag | uint64(len(t.keys)+1)
			t.keys = append(t.keys, k)
			if t.pos != nil {
				t.pos = append(t.pos, uint32(p))
			}
			return len(t.keys) - 1, true
		}
		if s&tagMask == tag {
			if i := int(uint32(s)) - 1; t.keys[i] == k {
				return i, false
			}
		}
	}
}

// Remove deletes the key with the given id. The last key takes its id, so
// the caller moves the last element of each parallel slice into id and
// truncates them, as Remove does with the keys.
//
// The freed slot is refilled by backward-shift deletion: the walk on from
// it pulls back each following slot whose home lies at or before the hole,
// so every remaining key stays reachable from its home without tombstones.
// Then the moved key's slot is repointed to its new id.
func (t *Index[K]) Remove(id int) {
	if t.pos == nil {
		t.pos = make([]uint32, len(t.keys), cap(t.keys))
		for p, s := range t.slots {
			if s != 0 {
				t.pos[uint32(s)-1] = uint32(p)
			}
		}
	}
	mask := uint64(len(t.slots) - 1)
	hole := uint64(t.pos[id])
	for p := (hole + 1) & mask; ; p = (p + 1) & mask {
		s := t.slots[p]
		if s == 0 {
			break
		}
		// s may fill the hole unless its home lies cyclically in
		// (hole, p]: it would then move before its home.
		if (p-s>>t.shift)&mask >= (p-hole)&mask {
			t.slots[hole] = s
			t.pos[uint32(s)-1] = uint32(hole)
			hole = p
		}
	}
	t.slots[hole] = 0
	last := len(t.keys) - 1
	if id != last {
		p := t.pos[last]
		t.slots[p] = t.slots[p]&tagMask | uint64(id+1)
		t.keys[id], t.pos[id] = t.keys[last], p
	}
	t.keys, t.pos = t.keys[:last], t.pos[:last]
}

// grow doubles the probe table, keeping the load at or under one half.
// Slots re-place from their own tags, so no key is rehashed.
func (t *Index[K]) grow() {
	old := t.slots
	n := max(2*len(old), minSlots)
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
		if t.pos != nil {
			t.pos[uint32(s)-1] = uint32(p)
		}
	}
}

// Reset empties the index, keeping its capacity.
func (t *Index[K]) Reset() {
	clear(t.slots)
	t.keys, t.pos = t.keys[:0], t.pos[:0]
}
