package topk

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// item is a heavily tied value made total by its position in the stream.
type item struct{ v, id int }

func byValueDesc(a, b item) int {
	if c := cmp.Compare(b.v, a.v); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// TestOfferMatchesSort checks the heap keeps exactly the k first items of
// a full sort, with the k-th at the root, for k from negative to past the
// stream's length and values drawn from a handful so ties are the rule.
func TestOfferMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := make([]item, rng.Intn(60))
		for i := range stream {
			stream[i] = item{v: rng.Intn(5), id: i}
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		sorted := slices.Clone(stream)
		slices.SortFunc(sorted, byValueDesc)
		for _, k := range []int{-1, 0, 1, 2, 7, len(stream), len(stream) + 3} {
			var h []item
			for _, x := range stream {
				h = Offer(h, k, x, byValueDesc)
			}
			want := sorted[:max(0, min(k, len(sorted)))]
			if len(h) > 0 && h[0] != want[len(want)-1] {
				t.Fatalf("seed %d k %d: root %v, want the k-th item %v", seed, k, h[0], want[len(want)-1])
			}
			slices.SortFunc(h, byValueDesc)
			if !slices.Equal(h, want) {
				t.Fatalf("seed %d k %d: kept %v, want %v", seed, k, h, want)
			}
		}
	}
}
