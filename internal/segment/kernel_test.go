package segment

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// symmetricSets returns the ascending neighbour rows of a random symmetric
// graph over n nodes, each pair linked with probability p and each node
// given a self-loop with probability p/4, as a view's rows are.
func symmetricSets(rng *rand.Rand, n int, p float64) [][]int32 {
	sets := make([][]int32, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p/4 {
			sets[i] = append(sets[i], int32(i))
		}
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				sets[i] = append(sets[i], int32(j))
				sets[j] = append(sets[j], int32(i))
			}
		}
	}
	for _, s := range sets {
		slices.Sort(s)
	}
	return sets
}

// checkKernels pins both counting kernels, forced, to the reference
// naiveTopK(naiveJaccardClique(…)), and the two-hop walk's sorted clique
// to naiveJaccardClique.
func checkKernels(t *testing.T, label string, sets [][]int32, minScore float64, k int) {
	t.Helper()
	n := len(sets)
	want := naiveTopK(naiveJaccardClique(sets, minScore), n, k)
	for _, useBits := range []bool{false, true} {
		if got := jaccardTopKBy(sets, minScore, k, useBits); !slices.Equal(got, want) {
			t.Fatalf("%s minScore %g k %d bits=%v: kernel diverges from naive\n got: %v\nwant: %v", label, minScore, k, useBits, got, want)
		}
	}
	if got, want := jaccardClique(sets, minScore), naiveJaccardClique(sets, minScore); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s minScore %g: two-hop clique diverges from naive", label, minScore)
	}
}

// TestJaccardKernelsAcrossWordBoundaries drives both kernels at node
// counts on either side of the bitset's 64-bit word boundaries, which the
// graphtest shapes (at most 63 nodes) never cross, over dense and sparse
// graphs.
func TestJaccardKernelsAcrossWordBoundaries(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129} {
		for _, shape := range []struct {
			name string
			p    float64
		}{{"dense", 0.5}, {"sparse", 3 / float64(n+1)}} {
			for seed := int64(1); seed <= 3; seed++ {
				sets := symmetricSets(rand.New(rand.NewSource(seed*1000+int64(n))), n, shape.p)
				label := fmt.Sprintf("n %d %s seed %d", n, shape.name, seed)
				for _, minScore := range []float64{1e-9, 0.02, 0.3} {
					for _, k := range []int{1, 6, n + 1} {
						checkKernels(t, label, sets, minScore, k)
					}
				}
			}
		}
	}
}

// FuzzJaccardTopK decodes a symmetric graph of up to 130 nodes from the
// input — node count, then one bit per node pair, row by row, with the
// diagonal as self-loops — and checks both kernels against the reference.
func FuzzJaccardTopK(f *testing.F) {
	f.Add([]byte{2, 6, 0xff})
	f.Add([]byte{64, 3, 0x5a, 0xa5, 0xff, 0x00, 0x81})
	f.Add([]byte{129, 1, 0xff, 0xff, 0xff, 0x0f, 0xf0, 0x33})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, k := int(data[0])%131, 1+int(data[1])%8
		bits := data[2:]
		bit := 0
		next := func() bool {
			if len(bits) == 0 {
				return false
			}
			b := bits[(bit/8)%len(bits)]>>(bit%8)&1 == 1
			bit++
			return b
		}
		sets := make([][]int32, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if next() {
					sets[i] = append(sets[i], int32(j))
					if j != i {
						sets[j] = append(sets[j], int32(i))
					}
				}
			}
		}
		for _, s := range sets {
			slices.Sort(s)
		}
		checkKernels(t, fmt.Sprintf("n %d", n), sets, 0.02, k)
	})
}
