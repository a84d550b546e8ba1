package radix

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

type item struct {
	key uint64
	pos int
}

// TestSortMatchesStableSort checks Sort against slices.SortStableFunc on
// keys that vary in a few byte positions or in all of them, heavily tied
// so stability is exercised, from the empty slice up.
func TestSortMatchesStableSort(t *testing.T) {
	var sorter Sorter[item] // one Sorter for every seed: buffers reused across lengths
	masks := []uint64{0, 0xff, 0xff00ff, 0xf0000000000000f0, ^uint64(0)}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mask := masks[rng.Intn(len(masks))]
		xs := make([]item, rng.Intn(300))
		for i := range xs {
			xs[i] = item{key: rng.Uint64() & mask & uint64(rng.Intn(8)*0x0101010101010101), pos: i}
		}
		want := slices.Clone(xs)
		slices.SortStableFunc(want, func(a, b item) int { return cmp.Compare(a.key, b.key) })
		got := slices.Clone(xs)
		sorter.Sort(got, func(x item) uint64 { return x.key })
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d mask %x: Sort diverges from a stable sort\n got: %v\nwant: %v", seed, mask, got, want)
		}
	}
}
