package graph

import "time"

// RollupStart returns the start of the size-aligned roll-up bucket that a
// window starting at start folds into.
func RollupStart(start time.Time, size time.Duration) time.Time {
	return start.Truncate(size).UTC()
}

// FoldRollup is the one roll-up bucket rule, which histstore compaction
// folds aged windows with: merge window g into the bucket acc (nil opens a
// fresh one), pin Start to g's bucket boundary, and widen End to cover g
// and at least the whole bucket. Callers seal acc and open a new one when
// RollupStart of the next window moves.
//
// Every member merge-joins into the bucket in CSR, so sealing it is handing
// it over. acc must be nil or what the previous call returned. It owns
// every array and series it holds — it never aliases a member, which is
// only read.
func FoldRollup(acc, g *Graph, size time.Duration) *Graph {
	if acc == nil {
		acc = New(g.Facet)
	}
	acc.Merge(g)
	acc.Start = RollupStart(g.Start, size)
	if end := acc.Start.Add(size); acc.End.Before(end) {
		acc.End = end
	}
	return acc
}
