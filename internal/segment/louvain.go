package segment

// louvain implements the Louvain community-detection method (Blondel et
// al.): greedy local modularity optimization followed by graph aggregation,
// repeated until modularity stops improving. It is deterministic — nodes
// are visited in index order — so segmentations are reproducible.

// wgraph is an undirected weighted multigraph in adjacency-list form.
type wgraph struct {
	n    int
	adj  [][]wedge
	self []float64 // self-loop weight (from aggregation)
}

type wedge struct {
	to int
	w  float64
}

// newWGraph builds a wgraph from scored pairs. Every node's list is cut
// from one slab sized by a counting pass, and filled in pair order.
func newWGraph(n int, pairs []simPair) *wgraph {
	g := &wgraph{n: n, adj: make([][]wedge, n), self: make([]float64, n)}
	deg := make([]int, n+1)
	for _, p := range pairs {
		if p.a != p.b {
			deg[p.a+1]++
			deg[p.b+1]++
		}
	}
	for v := range n {
		deg[v+1] += deg[v]
	}
	slab := make([]wedge, deg[n])
	for v := range g.adj {
		g.adj[v] = slab[deg[v]:deg[v]:deg[v+1]]
	}
	for _, p := range pairs {
		if p.a == p.b {
			g.self[p.a] += p.w
			continue
		}
		g.adj[p.a] = append(g.adj[p.a], wedge{to: p.b, w: p.w})
		g.adj[p.b] = append(g.adj[p.b], wedge{to: p.a, w: p.w})
	}
	return g
}

// totalWeight returns m, the sum of edge weights (self-loops counted once).
func (g *wgraph) totalWeight() float64 {
	var m float64
	for i := 0; i < g.n; i++ {
		for _, e := range g.adj[i] {
			m += e.w
		}
		m += 2 * g.self[i]
	}
	return m / 2
}

// strength returns the weighted degree of node i (self-loops count twice).
func (g *wgraph) strength(i int) float64 {
	var s float64
	for _, e := range g.adj[i] {
		s += e.w
	}
	return s + 2*g.self[i]
}

// louvain returns a community id per node. minGain is the modularity
// improvement below which local moves stop (1e-9 is a sensible default);
// gamma is the resolution parameter (1 = classic modularity, higher values
// favour more, smaller communities — Reichardt–Bornholdt generalization).
func louvain(g *wgraph, minGain, gamma float64) []int {
	if gamma <= 0 {
		gamma = 1
	}
	// comm[i] is node i's community at the current level; mapping tracks
	// the composition across levels.
	assign := make([]int, g.n)
	for i := range assign {
		assign[i] = i
	}

	cur := g
	for level := 0; level < 64; level++ {
		local, moved := localMove(cur, minGain, gamma)
		if !moved && level > 0 {
			break
		}
		// Relabel communities densely.
		relabel := make(map[int]int)
		for _, c := range local {
			if _, ok := relabel[c]; !ok {
				relabel[c] = len(relabel)
			}
		}
		for i := range local {
			local[i] = relabel[local[i]]
		}
		// Compose with the running assignment.
		for i := range assign {
			assign[i] = local[assign[i]]
		}
		if len(relabel) == cur.n || !moved {
			break
		}
		cur = aggregate(cur, local, len(relabel))
	}
	return assign
}

// localMove runs phase one: repeatedly move nodes to the neighboring
// community with the best modularity gain until a full pass makes no move.
func localMove(g *wgraph, minGain, gamma float64) (comm []int, movedAny bool) {
	comm = make([]int, g.n)
	commTot := make([]float64, g.n) // Σ strength per community
	str := make([]float64, g.n)     // each node's strength, summed once
	for i := 0; i < g.n; i++ {
		comm[i] = i
		str[i] = g.strength(i)
		commTot[i] = str[i]
	}
	m := g.totalWeight()
	if m == 0 {
		return comm, false
	}

	// neighWeight[c] accumulates weight from the node under consideration
	// to community c; reset per node via touched list.
	neighWeight := make([]float64, g.n)
	touched := make([]int, 0, 16)

	for pass := 0; pass < 128; pass++ {
		movedThisPass := false
		for i := 0; i < g.n; i++ {
			ki := str[i]
			ci := comm[i]
			// Gather weights to neighboring communities.
			touched = touched[:0]
			for _, e := range g.adj[i] {
				c := comm[e.to]
				if neighWeight[c] == 0 {
					touched = append(touched, c)
				}
				neighWeight[c] += e.w
			}
			// Remove i from its community.
			commTot[ci] -= ki
			best, bestGain := ci, 0.0
			// Gain of joining c: k_{i,c}/m − k_i·tot_c/(2m²), relative
			// to staying alone; compare against rejoining ci.
			base := neighWeight[ci] - gamma*ki*commTot[ci]/(2*m)
			for _, c := range touched {
				gain := neighWeight[c] - gamma*ki*commTot[c]/(2*m)
				if gain-base > bestGain+minGain {
					best, bestGain = c, gain-base
				}
			}
			commTot[best] += ki
			if best != ci {
				comm[i] = best
				movedThisPass = true
				movedAny = true
			}
			for _, c := range touched {
				neighWeight[c] = 0
			}
		}
		if !movedThisPass {
			break
		}
	}
	return comm, movedAny
}

// aggregate builds the level-up graph: one supernode per community, edge
// weights summed, intra-community weight becoming self-loops.
func aggregate(g *wgraph, comm []int, nComm int) *wgraph {
	out := &wgraph{n: nComm, adj: make([][]wedge, nComm), self: make([]float64, nComm)}
	type pairKey struct{ a, b int }
	acc := make(map[pairKey]float64)
	for i := 0; i < g.n; i++ {
		ci := comm[i]
		out.self[ci] += g.self[i]
		for _, e := range g.adj[i] {
			cj := comm[e.to]
			if ci == cj {
				// Each undirected edge appears twice in adj; halve.
				out.self[ci] += e.w / 2
				continue
			}
			if ci < cj {
				acc[pairKey{ci, cj}] += e.w
			}
		}
	}
	for k, w := range acc {
		out.adj[k.a] = append(out.adj[k.a], wedge{to: k.b, w: w})
		out.adj[k.b] = append(out.adj[k.b], wedge{to: k.a, w: w})
	}
	return out
}
