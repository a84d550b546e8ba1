package denseindex

import (
	"math/rand"
	"slices"
	"testing"
)

// testHash sends keys to four kinds of home: well mixed; the table's last
// slot at every size, so runs wrap the end; the middle slot's left
// neighbour; slot 0, where wrapped runs land. Keys of one kind also share
// their tag, so lookups there compare keys.
func testHash(k uint16) uint64 {
	switch k % 4 {
	case 0:
		return Mix(uint64(k)|1<<40, 0x9e3779b97f4a7c15)
	case 1:
		return 0xffffffff<<32 | uint64(k)
	case 2:
		return 0x7fffffff<<32 | uint64(k)
	}
	return uint64(k)
}

// model is the index as a Go map plus the id order Remove promises.
type model struct {
	id   map[uint16]int
	keys []uint16
}

// check fails unless t holds exactly m: the same keys at the same ids,
// every key found from its home, every pos pointing at its key's slot
// once Remove has built them, and no stray slot.
func check(tb testing.TB, step int, t *Index[uint16], m *model) {
	tb.Helper()
	if !slices.Equal(t.Keys(), m.keys) {
		tb.Fatalf("step %d: keys %v, model %v", step, t.Keys(), m.keys)
	}
	used := 0
	for _, s := range t.slots {
		if s != 0 {
			used++
		}
	}
	if used != len(m.keys) || t.pos != nil && len(t.pos) != len(m.keys) {
		tb.Fatalf("step %d: %d slots used, %d positions, want %d", step, used, len(t.pos), len(m.keys))
	}
	for id, k := range m.keys {
		if t.pos != nil && t.slots[t.pos[id]] != testHash(k)&tagMask|uint64(id+1) {
			tb.Fatalf("step %d: pos[%d] = %d holds %x, not key %d", step, id, t.pos[id], t.slots[t.pos[id]], k)
		}
	}
	for id, k := range m.keys {
		if got, added := t.FindOrAdd(testHash(k), k); added || got != id {
			tb.Fatalf("step %d: FindOrAdd(%d) = %d, %v; want id %d", step, k, got, added, id)
		}
	}
}

// runOps drives an Index and the model with the same operations: add a
// key (new or present), remove an id (the last key moves into it), or,
// rarely, reset. Keys come from a small pool so adds recur and tables
// grow while runs of shared homes are full.
func runOps(tb testing.TB, ops []byte) {
	tb.Helper()
	var t Index[uint16]
	m := &model{id: map[uint16]int{}}
	for step := 0; len(ops) >= 2; step++ {
		op, arg := ops[0], ops[1]
		ops = ops[2:]
		switch {
		case op < 160 || len(m.keys) == 0:
			k := uint16(arg) % 200
			id, added := t.FindOrAdd(testHash(k), k)
			want, ok := m.id[k]
			if !ok {
				want = len(m.keys)
				m.id[k] = want
				m.keys = append(m.keys, k)
			}
			if id != want || added == ok {
				tb.Fatalf("step %d: FindOrAdd(%d) = %d, %v; model %d, %v", step, k, id, added, want, !ok)
			}
		case op < 254:
			id := int(arg) % len(m.keys)
			t.Remove(id)
			delete(m.id, m.keys[id])
			last := len(m.keys) - 1
			if id != last {
				m.keys[id] = m.keys[last]
				m.id[m.keys[id]] = id
			}
			m.keys = m.keys[:last]
		default:
			t.Reset()
			m = &model{id: map[uint16]int{}}
		}
		check(tb, step, &t, m)
	}
}

// TestIndexMatchesMap runs seeded operation schedules through an Index and
// a Go-map model, checking the whole table after every step. Adds
// outnumber removals, so each schedule grows the table through several
// doublings with wrapped and clustered runs full, and removals empty slots
// in the middle of those runs. Each schedule opens with up to 180 adds,
// so the first Remove builds the slot positions from tables of every size.
func TestIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		ops := make([]byte, 1200)
		rand.New(rand.NewSource(seed)).Read(ops)
		for i := range 3 * int(seed) {
			ops = append([]byte{0, byte(i)}, ops...)
		}
		runOps(t, ops)
	}
}

// TestIndexRemoveWrappedRun empties a run that wraps the end of the table
// from its first slot on: each removal must pull the rest of the run,
// including the keys past slot 0, back towards their homes.
func TestIndexRemoveWrappedRun(t *testing.T) {
	var x Index[uint16]
	m := &model{id: map[uint16]int{}}
	for k := uint16(1); k <= 21; k += 4 { // all home at the last slot
		x.FindOrAdd(testHash(k), k)
		m.id[k] = len(m.keys)
		m.keys = append(m.keys, k)
	}
	if x.slots[0] == 0 {
		t.Fatalf("run does not wrap: slots %x", x.slots)
	}
	for step := 0; len(m.keys) > 0; step++ {
		x.Remove(0)
		delete(m.id, m.keys[0])
		last := len(m.keys) - 1
		m.keys[0] = m.keys[last]
		m.keys = m.keys[:last]
		check(t, step, &x, m)
	}
}

// FuzzIndex is TestIndexMatchesMap over arbitrary schedules.
func FuzzIndex(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runOps(t, ops) })
}
