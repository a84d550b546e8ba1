package segment

// The kernels' naive pins call them by their one-shot signatures; each of
// these runs its kernel in a fresh Scratch.

func jaccardClique(sets [][]int32, minScore float64) []simPair {
	return new(Scratch).jaccardClique(sets, minScore)
}

func jaccardTopK(sets [][]int32, minScore float64, k int) []simPair {
	return new(Scratch).jaccardTopK(sets, minScore, k)
}

func jaccardTopKBy(sets [][]int32, minScore float64, k int, useBits bool) []simPair {
	return new(Scratch).jaccardTopKBy(sets, minScore, k, useBits)
}

func topK(pairs []simPair, n, k int) []simPair {
	return new(Scratch).topK(pairs, n, k)
}

func newWGraph(n int, pairs []simPair) *wgraph {
	return new(Scratch).newWGraph(n, pairs)
}
