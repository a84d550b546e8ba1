module cloudgraph/bench

go 1.22

require cloudgraph v0.0.0

replace cloudgraph => ../
