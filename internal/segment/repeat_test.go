package segment

import (
	"fmt"
	"strings"
	"testing"

	"cloudgraph/internal/graph/graphtest"
)

// render writes an Assignment's segments, members in node order, as text:
// two runs agree exactly when their renderings are byte-equal.
func render(a Assignment) string {
	var b strings.Builder
	for id, seg := range a.Segments() {
		fmt.Fprintf(&b, "%d:", id)
		for _, n := range seg {
			b.WriteString(" " + n.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRepeatRunsAgree segments every graphtest case of seeds 1–30 with
// every strategy, at resolution 1 and 4, 21 times each, and requires every
// run's answer to be byte-equal to the first. Louvain's level-up graphs
// are where run-to-run variation would enter: the order of their
// adjacency decides the float sums and the first-wins tie-break of the
// local moves, so it must not depend on map iteration.
func TestRepeatRunsAgree(t *testing.T) {
	const runs = 21
	for seed := int64(1); seed <= 30; seed++ {
		for _, c := range graphtest.Cases(seed) {
			u := c.G.Undirected()
			for _, s := range Strategies() {
				for _, gamma := range []float64{1, 4} {
					opts := Options{Resolution: gamma}
					first := ""
					for run := range runs {
						a, err := RunView(s, u, opts)
						if err != nil {
							t.Fatal(err)
						}
						got := render(a)
						if run == 0 {
							first = got
						} else if got != first {
							t.Errorf("seed %d %s %s γ=%g: run %d differs from run 0", seed, c.Name, s, gamma, run)
							break
						}
					}
				}
			}
		}
	}
}
